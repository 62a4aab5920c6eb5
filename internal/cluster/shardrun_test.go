package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"net"
	"testing"
	"time"

	"pytfhe/internal/backend"
)

func TestShardedAdderAndCacheHit(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 2, 2)
	nl := adder4()
	for run, tc := range [][2]uint64{{5, 9}, {15, 15}} {
		in := append(bitsOf(tc[0], 4), bitsOf(tc[1], 4)...)
		outs, err := coord.RunSharded(nl, backend.EncryptInputs(sk, in))
		if err != nil {
			t.Fatal(err)
		}
		got := uintOf(backend.DecryptOutputs(sk, outs))
		if got != tc[0]+tc[1] {
			t.Fatalf("sharded %d+%d = %d", tc[0], tc[1], got)
		}
		st := coord.LastStat
		if run == 0 {
			// First run ships every shard: all misses.
			if st.ShardMisses == 0 || st.ShardHits != 0 {
				t.Fatalf("first run: hits=%d misses=%d, want 0/>0", st.ShardHits, st.ShardMisses)
			}
			if st.ShardBytesShipped == 0 {
				t.Fatalf("first run shipped no shard bytes: %+v", st)
			}
		} else {
			// Second run must find every shard resident.
			if st.ShardMisses != 0 || st.ShardHits == 0 {
				t.Fatalf("second run: hits=%d misses=%d, want >0/0", st.ShardHits, st.ShardMisses)
			}
			if st.ShardBytesShipped != 0 {
				t.Fatalf("second run reshipped %d bytes", st.ShardBytesShipped)
			}
		}
		if st.SamplesSent == 0 || st.SamplesReceived == 0 || st.BoundaryBytes == 0 {
			t.Fatalf("boundary traffic not accounted: %+v", st)
		}
		if st.WireBytesSent == 0 || st.WireBytesRecv == 0 {
			t.Fatalf("measured wire counters empty: %+v", st)
		}
	}
	tot := coord.Totals()
	if tot.ShardRuns != 2 || tot.ShardMisses == 0 || tot.ShardHits == 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestShardedMatchesGateDispatch(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 3, 1)
	nl := adder4()
	in := append(bitsOf(11, 4), bitsOf(6, 4)...)
	gateOuts, err := coord.Run(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatal(err)
	}
	shardOuts, err := coord.RunSharded(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatal(err)
	}
	want := backend.DecryptOutputs(sk, gateOuts)
	got := backend.DecryptOutputs(sk, shardOuts)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("output %d: gate dispatch %v, sharded %v", i, want[i], got[i])
		}
	}
}

// TestShardedWireBelowGateDispatch is the point of the subsystem: per-run
// boundary traffic must undercut the gate path's per-operand shipping.
func TestShardedWireBelowGateDispatch(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 2, 2)
	nl := adder4()
	in := backend.EncryptInputs(sk, bitsOf(0x5a, 8))
	if _, err := coord.Run(nl, in); err != nil {
		t.Fatal(err)
	}
	gateBytes := coord.LastStat.BytesSent
	// Warm the shard cache, then measure a steady-state run.
	if _, err := coord.RunSharded(nl, in); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.RunSharded(nl, in); err != nil {
		t.Fatal(err)
	}
	shardBytes := coord.LastStat.BoundaryBytes
	if shardBytes >= gateBytes {
		t.Fatalf("sharded boundary traffic %d B did not undercut gate dispatch %d B", shardBytes, gateBytes)
	}
}

// shardWorkerDiesOnFirstStep joins as a protocol-correct worker, accepts
// its shard, then drops the connection the moment real work arrives.
func shardWorkerDiesOnFirstStep(t *testing.T, addr string) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		enc := gob.NewEncoder(conn)
		dec := gob.NewDecoder(conn)
		if err := enc.Encode(Message{Hello: &Hello{Slots: 1, Version: ProtoVersion}}); err != nil {
			return
		}
		var welcome, key Message
		if err := dec.Decode(&welcome); err != nil {
			return
		}
		if err := dec.Decode(&key); err != nil {
			return
		}
		for {
			var msg Message
			if err := dec.Decode(&msg); err != nil {
				return
			}
			switch {
			case msg.ShardInit != nil:
				if err := enc.Encode(Message{ShardReady: &ShardReady{Hash: msg.ShardInit.Hash, Cached: false}}); err != nil {
					return
				}
			case msg.ShardData != nil:
				if err := enc.Encode(Message{ShardReady: &ShardReady{Hash: msg.ShardData.Hash, Cached: true}}); err != nil {
					return
				}
			case msg.Step != nil:
				conn.Close()
				return
			case msg.Bye:
				return
			}
		}
	}()
	return done
}

// TestShardedWorkerLostRecovers kills one of two workers at its first step
// and checks the survivor absorbs the lost shard (reship + replay) and the
// run still produces the right sum.
func TestShardedWorkerLostRecovers(t *testing.T) {
	sk, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	coord.JobTimeout = 10 * time.Second

	go func() { _ = NewWorker(1).Serve(coord.Addr()) }()
	dead := shardWorkerDiesOnFirstStep(t, coord.Addr())
	if err := coord.AcceptWorkers(2); err != nil {
		t.Fatal(err)
	}

	nl := adder4()
	in := append(bitsOf(9, 4), bitsOf(6, 4)...)
	outs, err := coord.RunSharded(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatalf("sharded run with one dying worker: %v", err)
	}
	if got := uintOf(backend.DecryptOutputs(sk, outs)); got != 15 {
		t.Fatalf("9+6 = %d after shard recovery", got)
	}
	<-dead
	st := coord.LastStat
	if st.WorkersLost != 1 {
		t.Fatalf("stats.WorkersLost = %d, want 1", st.WorkersLost)
	}
	if coord.Totals().ShardReships == 0 && st.ShardMisses < 3 {
		// The orphaned shard must have been re-installed on the survivor:
		// either as a tracked reship (post-level-0 loss) or as an extra miss.
		t.Fatalf("no reship recorded: %+v", st)
	}
}

// TestPendingCoordinatorBindsLate exercises the daemon flow: workers join
// a keyless coordinator, park, and complete their handshake when the key
// arrives with the first session.
func TestPendingCoordinatorBindsLate(t *testing.T) {
	sk, ck := keys(t)
	coord, err := NewPendingCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	go coord.ServeJoins()
	for i := 0; i < 2; i++ {
		go func() { _ = NewWorker(1).Serve(coord.Addr()) }()
	}
	// Give the workers a moment to park before the key binds, so the
	// drain path (not just the live-join path) is exercised.
	time.Sleep(100 * time.Millisecond)
	if coord.WorkerCount() != 0 {
		t.Fatalf("%d workers admitted before SetKey", coord.WorkerCount())
	}
	if err := coord.SetKey(ck); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	nl := adder4()
	in := append(bitsOf(3, 4), bitsOf(4, 4)...)
	outs, err := coord.RunSharded(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatal(err)
	}
	if got := uintOf(backend.DecryptOutputs(sk, outs)); got != 7 {
		t.Fatalf("3+4 = %d via late-bound coordinator", got)
	}
	// Rebinding the same key is a no-op; a different key is refused.
	if err := coord.SetKey(ck); err != nil {
		t.Fatalf("same-key rebind: %v", err)
	}
}

func TestVersionMismatchRejectedByCoordinator(t *testing.T) {
	_, ck := keys(t)
	for _, v := range []int{1, ProtoVersion - 1} {
		coord, err := NewCoordinator(ck, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		go func() {
			conn, err := net.Dial("tcp", coord.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			enc := gob.NewEncoder(conn)
			if err := enc.Encode(Message{Hello: &Hello{Slots: 1, Version: v}}); err != nil {
				return
			}
			var rej Message
			_ = gob.NewDecoder(conn).Decode(&rej)
		}()
		if err := coord.AcceptWorkers(1); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("v%d peer: err = %v, want ErrVersionMismatch", v, err)
		}
	}
}

// fakeCoordinator accepts one worker and plays a scripted handshake.
func fakeCoordinator(t *testing.T, script func(enc *gob.Encoder, dec *gob.Decoder)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		enc := gob.NewEncoder(conn)
		dec := gob.NewDecoder(conn)
		var hello Message
		if err := dec.Decode(&hello); err != nil {
			return
		}
		script(enc, dec)
	}()
	return ln.Addr().String()
}

func TestVersionMismatchRejectedByWorker(t *testing.T) {
	addr := fakeCoordinator(t, func(enc *gob.Encoder, dec *gob.Decoder) {
		_ = enc.Encode(Message{Welcome: &Welcome{Version: 99}})
	})
	if err := NewWorker(1).Serve(addr); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
}

func TestKeyMismatchRejectedByWorker(t *testing.T) {
	_, ck := keys(t)
	addr := fakeCoordinator(t, func(enc *gob.Encoder, dec *gob.Decoder) {
		_ = enc.Encode(Message{Welcome: &Welcome{Version: ProtoVersion, KeyHash: "not-the-key"}})
		_ = enc.Encode(Message{Key: ck})
	})
	if err := NewWorker(1).Serve(addr); !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("err = %v, want ErrKeyMismatch", err)
	}
}

func TestDialRetryExhaustsBudget(t *testing.T) {
	// Reserve a port and close it again: nobody listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	w := NewWorker(1)
	w.DialTimeout = 300 * time.Millisecond
	start := time.Now()
	err = w.Serve(addr)
	if !errors.Is(err, ErrDial) {
		t.Fatalf("err = %v, want ErrDial", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("gave up after %s without retrying", elapsed)
	}
}

// TestPartitionEdgeCases pins the slot-proportional splitter on the shapes
// the scheduler actually produces: more workers than gates, a single
// surviving worker, an empty level.
func TestPartitionEdgeCases(t *testing.T) {
	cover := func(t *testing.T, level []int, parts [][]int) {
		t.Helper()
		seen := map[int]bool{}
		for _, p := range parts {
			for _, g := range p {
				if seen[g] {
					t.Fatalf("gate %d assigned twice: %v", g, parts)
				}
				seen[g] = true
			}
		}
		if len(seen) != len(level) {
			t.Fatalf("covered %d of %d gates: %v", len(seen), len(level), parts)
		}
	}
	t.Run("more workers than gates", func(t *testing.T) {
		workers := []*workerConn{{slots: 1}, {slots: 1}, {slots: 1}}
		level := []int{7, 9}
		parts := partition(level, workers)
		if len(parts) != 3 {
			t.Fatalf("%d parts for 3 workers", len(parts))
		}
		cover(t, level, parts)
	})
	t.Run("single worker", func(t *testing.T) {
		workers := []*workerConn{{slots: 2}}
		level := []int{0, 1, 2, 3, 4}
		parts := partition(level, workers)
		cover(t, level, parts)
		if len(parts[0]) != len(level) {
			t.Fatalf("single worker got %d of %d gates", len(parts[0]), len(level))
		}
	})
	t.Run("empty level", func(t *testing.T) {
		workers := []*workerConn{{slots: 1}, {slots: 3}}
		parts := partition(nil, workers)
		cover(t, nil, parts)
		for _, p := range parts {
			if len(p) != 0 {
				t.Fatalf("empty level produced work: %v", parts)
			}
		}
	})
}
