package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/trand"
	"pytfhe/internal/wire"
)

var (
	keyOnce sync.Once
	testSK  *boot.SecretKey
	testCK  *boot.CloudKey
)

func keys(t testing.TB) (*boot.SecretKey, *boot.CloudKey) {
	keyOnce.Do(func() {
		rng := trand.NewSeeded([]byte("cluster-test-keys"))
		sk, ck, err := boot.GenerateKeys(params.Test(), rng)
		if err != nil {
			panic(err)
		}
		testSK, testCK = sk, ck
	})
	return testSK, testCK
}

func adder4() *circuit.Netlist {
	b := circuit.NewBuilder("adder4", circuit.AllOptimizations())
	a := b.Inputs("a", 4)
	bb := b.Inputs("b", 4)
	carry := b.Const(false)
	for i := 0; i < 4; i++ {
		axb := b.Xor(a[i], bb[i])
		b.Output("s", b.Xor(axb, carry))
		carry = b.Or(b.And(a[i], bb[i]), b.And(axb, carry))
	}
	b.Output("cout", carry)
	return b.MustBuild()
}

func bitsOf(v uint64, n int) []bool {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = v>>uint(i)&1 == 1
	}
	return bits
}

func uintOf(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

// startCluster brings up a coordinator and n in-process workers connected
// over real TCP sockets on localhost.
func startCluster(t *testing.T, ck *boot.CloudKey, nWorkers, slots int) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nWorkers; i++ {
		go func() {
			if err := NewWorker(slots).Serve(coord.Addr()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	if err := coord.AcceptWorkers(nWorkers); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

func TestDistributedAdder(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 2, 2)
	nl := adder4()
	for _, tc := range [][2]uint64{{5, 9}, {15, 15}} {
		in := append(bitsOf(tc[0], 4), bitsOf(tc[1], 4)...)
		outs, err := coord.Run(nl, backend.EncryptInputs(sk, in))
		if err != nil {
			t.Fatal(err)
		}
		got := uintOf(backend.DecryptOutputs(sk, outs))
		if got != tc[0]+tc[1] {
			t.Fatalf("distributed %d+%d = %d", tc[0], tc[1], got)
		}
	}
	st := coord.LastStat
	if st.Workers != 2 || st.Slots != 4 || st.Bootstraps == 0 || st.BytesSent == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDistributedMatchesLocalBackend(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 3, 1)
	nl := adder4()
	in := append(bitsOf(7, 4), bitsOf(12, 4)...)

	local := backend.NewSingle(ck)
	wantOuts, err := local.Run(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatal(err)
	}
	gotOuts, err := coord.Run(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatal(err)
	}
	want := backend.DecryptOutputs(sk, wantOuts)
	got := backend.DecryptOutputs(sk, gotOuts)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("output %d: local %v, distributed %v", i, want[i], got[i])
		}
	}
}

func TestRunWithoutWorkersFails(t *testing.T) {
	_, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.Run(adder4(), nil); err == nil {
		t.Fatal("expected error with no workers")
	}
}

// TestNilInputRejected: input validation runs before worker dispatch, so
// the typed exec error surfaces even on a coordinator with no workers.
func TestNilInputRejected(t *testing.T) {
	sk, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	inputs := backend.EncryptInputs(sk, bitsOf(0, 8))
	inputs[3] = nil
	if _, err := coord.Run(adder4(), inputs); !errors.Is(err, exec.ErrNilInput) {
		t.Fatalf("error = %v, want exec.ErrNilInput", err)
	}
}

func TestInputCountValidation(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 1, 1)
	if _, err := coord.Run(adder4(), backend.EncryptInputs(sk, bitsOf(0, 3))); err == nil {
		t.Fatal("expected input count error")
	}
}

func TestPartitionCoversAllGates(t *testing.T) {
	level := []int{0, 1, 2, 3, 4, 5, 6}
	workers := []*workerConn{{slots: 1}, {slots: 2}, {slots: 1}}
	parts := partition(level, workers)
	seen := map[int]bool{}
	for _, p := range parts {
		for _, g := range p {
			if seen[g] {
				t.Fatalf("gate %d assigned twice", g)
			}
			seen[g] = true
		}
	}
	if len(seen) != len(level) {
		t.Fatalf("partition covered %d of %d gates", len(seen), len(level))
	}
	// The 2-slot worker should get at least as much as the 1-slot ones.
	if len(parts[1]) < len(parts[0]) {
		t.Fatalf("slot weighting ignored: %v", parts)
	}
}

// TestWorkerDisconnectSurfacesError kills a worker's connection mid-session
// and checks that the coordinator reports a transport error rather than
// hanging or returning wrong results.
func TestWorkerDisconnectSurfacesError(t *testing.T) {
	_, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A fake worker that completes the handshake (Hello out, Welcome and
	// key in), then drops the link.
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		enc := gob.NewEncoder(conn)
		dec := gob.NewDecoder(conn)
		if err := enc.Encode(Message{Hello: &Hello{Slots: 1, Version: ProtoVersion}}); err != nil {
			t.Errorf("hello: %v", err)
			return
		}
		var welcome, key Message
		if err := dec.Decode(&welcome); err != nil || welcome.Welcome == nil {
			t.Errorf("welcome: %+v (%v)", welcome, err)
			return
		}
		if err := dec.Decode(&key); err != nil || key.Key == nil {
			t.Errorf("key: %v", err)
			return
		}
		// Receive the first job, then vanish.
		var job Message
		_ = dec.Decode(&job)
		conn.Close()
	}()
	if err := coord.AcceptWorkers(1); err != nil {
		t.Fatal(err)
	}

	sk := testSK
	nl := adder4()
	in := backend.EncryptInputs(sk, bitsOf(1, 8))
	_, err = coord.Run(nl, in)
	if err == nil {
		t.Fatal("coordinator should report the dropped worker")
	}
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("err = %v, want ErrWorkerLost (no surviving workers)", err)
	}
	<-done
}

// deadAfterFirstJob joins the cluster as a well-behaved worker, then drops
// the connection the moment its first job arrives — a worker crashing
// mid-run.
func deadAfterFirstJob(t *testing.T, addr string) <-chan struct{} {
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
		var job Message
		_ = dec.Decode(&job)
		conn.Close()
	}()
	return done
}

// TestWorkerLostMidRunRequeues kills one of two workers mid-run and checks
// that the coordinator requeues the dead worker's batch onto the survivor
// and still produces the right sum, rather than blocking forever or
// failing the run.
func TestWorkerLostMidRunRequeues(t *testing.T) {
	sk, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	coord.JobTimeout = 10 * time.Second

	go func() { _ = NewWorker(1).Serve(coord.Addr()) }()
	dead := deadAfterFirstJob(t, coord.Addr())
	if err := coord.AcceptWorkers(2); err != nil {
		t.Fatal(err)
	}

	nl := adder4()
	in := append(bitsOf(9, 4), bitsOf(6, 4)...)
	outs, err := coord.Run(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatalf("run with one dead worker: %v", err)
	}
	if got := uintOf(backend.DecryptOutputs(sk, outs)); got != 15 {
		t.Fatalf("9+6 = %d after requeue", got)
	}
	<-dead
	if coord.WorkerCount() != 1 {
		t.Fatalf("dead worker still on the roster: %d workers", coord.WorkerCount())
	}
	if coord.LastStat.WorkersLost != 1 {
		t.Fatalf("stats.WorkersLost = %d, want 1", coord.LastStat.WorkersLost)
	}
}

// TestKeyBroadcastSize sanity-checks that the broadcast cloud key is the
// dominant setup payload (bootstrapping key as 32-bit coefficients).
func TestKeyBroadcastSize(t *testing.T) {
	_, ck := keys(t)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Message{Key: ck}); err != nil {
		t.Fatal(err)
	}
	// Test parameters: n=64 TGSW samples of 6 rows x 2 polys x 256 coeffs
	// x 4 B ≈ 0.8 MB, plus the switch key. It must at least exceed the
	// raw bootstrapping-key payload and stay within an order of it.
	min := 64 * 6 * 2 * 256 * 4
	if buf.Len() < min || buf.Len() > 10*min {
		t.Fatalf("serialized cloud key is %d B, raw bootstrapping key %d B", buf.Len(), min)
	}
	t.Logf("cloud key wire size: %.1f MB", float64(buf.Len())/1e6)
}

// TestKeyHashAgreesAcrossRoles checks that the three binaries of a cluster
// address one key identically: the client hashes the key object, the
// daemon hashes the bytes the client uploads, and the worker hashes the
// copy it decodes from the coordinator's broadcast. A worker joining over
// TCP then passes the coordinator's key-hash check.
func TestKeyHashAgreesAcrossRoles(t *testing.T) {
	_, ck := keys(t)
	client, err := wire.KeyHash(ck)
	if err != nil {
		t.Fatal(err)
	}
	upload, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	daemon := wire.KeyBytesHash(upload)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Message{Key: ck}); err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	worker, err := wire.KeyHash(got.Key)
	if err != nil {
		t.Fatal(err)
	}
	if client != daemon || daemon != worker {
		t.Fatalf("key hashes disagree: client %s, daemon %s, worker %s", client, daemon, worker)
	}
	coord := startCluster(t, ck, 1, 1)
	if coord.keyHash != client {
		t.Fatalf("coordinator bound %s, client hashed %s", coord.keyHash, client)
	}
}
