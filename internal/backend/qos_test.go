package backend

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/qos"
)

// nandChain builds a serial chain of n NAND gates — no parallelism, so its
// latency is the per-gate service time times n. The light tenant's probe.
func nandChain(t testing.TB, n int) *circuit.Netlist {
	t.Helper()
	b := circuit.NewBuilder("chain", circuit.AllOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	v := b.Nand(x, y)
	for i := 1; i < n; i++ {
		v = b.Nand(v, y)
	}
	b.Output("out", v)
	return b.MustBuild()
}

// wideXor builds one XOR per distinct input pair over m inputs — maximal
// parallelism, the hot tenant's flood: every gate is ready immediately,
// and distinct operand pairs keep the optimizer from folding them.
func wideXor(t testing.TB, m int) *circuit.Netlist {
	t.Helper()
	b := circuit.NewBuilder("wide", circuit.AllOptimizations())
	a := b.Inputs("a", m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			b.Output("o", b.Xor(a[i], a[j]))
		}
	}
	return b.MustBuild()
}

// chainLatencies runs the chain reps times on ex under key and returns
// the latencies in ascending order.
func chainLatencies(t *testing.T, ex *Shared, key *SharedKey, nl *circuit.Netlist, in []bool, reps int) []time.Duration {
	t.Helper()
	sk, _ := keys(t)
	enc := EncryptInputs(sk, in)
	lats := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := ex.Submit(context.Background(), key, nl, enc); err != nil {
			t.Fatalf("chain rep %d: %v", i, err)
		}
		lats = append(lats, time.Since(start))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats
}

// chainP95 runs the chain reps times on ex under key and returns the p95
// latency.
func chainP95(t *testing.T, ex *Shared, key *SharedKey, nl *circuit.Netlist, in []bool, reps int) time.Duration {
	t.Helper()
	lats := chainLatencies(t, ex, key, nl, in, reps)
	return lats[(len(lats)-1)*95/100]
}

// startFlood keeps ex saturated from two goroutines submitting the wide
// flood under key hot, and returns the function that stops them.
func startFlood(t *testing.T, ex *Shared, hot *SharedKey) (stop func()) {
	t.Helper()
	sk, _ := keys(t)
	flood := wideXor(t, 8) // 28 independent bootstrapped gates
	encFlood := EncryptInputs(sk, bitsOf(0xA5, 8))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := ex.Submit(context.Background(), hot, flood, encFlood); err != nil {
					if !errors.Is(err, ErrExecutorClosed) {
						t.Errorf("flood: %v", err)
					}
					return
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestSharedFairnessUnderLoad is the starvation regression test: a light
// tenant running a short NAND chain keeps its p95 latency within 3x of
// its uncontended p95 even while a hot tenant floods the executor with
// wide parallel circuits. Under the old single cross-run heap the light
// tenant queued behind the entire flood (arrival order) and the ratio
// blew past 3x; start-time fair queuing bounds its wait to about one
// pick per gate.
func TestSharedFairnessUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping benchmark-style test; skipped in -short")
	}
	sk, ck := keys(t)
	// Sixteen gates (~7 ms alone) keep the probe above the OS time slice,
	// as four gates did when a gate cost ~4.7 ms: a shorter probe on a
	// loaded machine measures the machine, not the picker. The fixed
	// per-request delay a longer probe amortises is pinned separately by
	// TestSharedShortRequestHandoff.
	chain := nandChain(t, 16)
	flood := wideXor(t, 8) // 28 independent bootstrapped gates
	in := []bool{true, false}
	const reps = 12

	ex := NewSharedBatch(2, 1)
	defer ex.Close()
	light, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}

	// Warm both tenants first: per-worker engines build lazily on first
	// use, and that one-time cost must not land in either measurement.
	if _, err := ex.Submit(context.Background(), hot, flood, EncryptInputs(sk, bitsOf(0xA5, 8))); err != nil {
		t.Fatal(err)
	}
	chainP95(t, ex, light, chain, in, 2)

	// Solo baseline: the chain with the executor otherwise idle. Measured
	// again after the contended phase — go test runs sibling packages
	// concurrently, so machine load can ramp mid-test; comparing against
	// the worse of the two baselines isolates the scheduler's contribution
	// from ambient CPU contention.
	solo := chainP95(t, ex, light, chain, in, reps)

	// Contended: the hot tenant keeps the queue saturated with wide
	// floods while the light tenant re-runs its probe.
	stop := startFlood(t, ex, hot)
	contended := chainP95(t, ex, light, chain, in, reps)
	stop()

	if after := chainP95(t, ex, light, chain, in, reps); after > solo {
		solo = after
	}

	// The fairness bound: one pick's worth of wait per chain gate keeps
	// the contended p95 within 3x of solo. On a single-CPU machine the
	// two worker threads time-share one core during the contended phase,
	// roughly doubling every gate's execution — a hardware effect no
	// scheduler can remove — so the bound is scaled there. The regression
	// this guards (light tenant queued behind the whole flood backlog)
	// is an order of magnitude, not a factor.
	bound := time.Duration(3)
	if runtime.NumCPU() < 2 {
		bound = 6
	}
	t.Logf("light tenant p95: solo %v, contended %v (%.2fx, bound %dx)",
		solo, contended, float64(contended)/float64(solo), bound)
	if contended > bound*solo {
		t.Fatalf("light tenant starved: contended p95 %v > %dx solo p95 %v", contended, bound, solo)
	}

	st := ex.Stats()
	if st.TenantPicks[light.ID()] == 0 || st.TenantPicks[hot.ID()] == 0 {
		t.Fatalf("per-tenant pick accounting dead: %+v", st.TenantPicks)
	}
}

// TestSharedShortRequestHandoff pins the completion handoff in
// Shared.complete. With every worker busy on a flood, the worker that
// finishes a run's last gate goes straight on to the next queued gate and
// never parks, so unless it yields its P the woken submitter waits for
// the runtime's ~10 ms preemption tick. A one-gate request is the most
// exposed: its median latency under the flood must stay within 4x of its
// median alone (a probe waits at most one gate for a busy worker; the
// tick is ~20 gates at Test params). Medians, because a loaded machine's
// OS time slices delay a few requests, while the tick delays them all.
func TestSharedShortRequestHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping benchmark-style test; skipped in -short")
	}
	_, ck := keys(t)
	probe := nandChain(t, 1)
	in := []bool{true, false}
	const reps = 60

	ex := NewSharedBatch(2, 1)
	defer ex.Close()
	light, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}
	stop := startFlood(t, ex, hot)
	chainLatencies(t, ex, light, probe, in, 2) // build both tenants' engines
	stop()

	median := func(lats []time.Duration) time.Duration { return lats[len(lats)/2] }
	solo := median(chainLatencies(t, ex, light, probe, in, reps))
	stop = startFlood(t, ex, hot)
	contended := median(chainLatencies(t, ex, light, probe, in, reps))
	stop()
	if after := median(chainLatencies(t, ex, light, probe, in, reps)); after > solo {
		solo = after
	}

	t.Logf("one-gate median: solo %v, contended %v (%.2fx, bound 4x)",
		solo, contended, float64(contended)/float64(solo))
	if contended > 4*solo {
		t.Fatalf("short request held after completion: contended median %v > 4x solo median %v", contended, solo)
	}
}

// TestSharedTenantQuota pins fail-fast admission: with one in-flight run
// allowed, a concurrent second Submit from the same tenant is refused
// with qos.ErrQuotaExceeded while another tenant is admitted, and the
// refusal is counted.
func TestSharedTenantQuota(t *testing.T) {
	sk, ck := keys(t)
	nl := nandChain(t, 6)
	enc := EncryptInputs(sk, []bool{true, false})

	ex := NewSharedQoS(1, 1, QoSConfig{MaxRunsPerTenant: 1})
	defer ex.Close()
	k1, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := ex.Submit(context.Background(), k1, nl, enc)
		done <- err
	}()
	<-started
	// Wait until the first run is admitted (in flight), then collide.
	for i := 0; ; i++ {
		if ex.Stats().InFlight >= 1 {
			break
		}
		if i > 1000 {
			t.Fatal("first submission never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := ex.Submit(context.Background(), k1, nl, enc); !errors.Is(err, qos.ErrQuotaExceeded) {
		t.Fatalf("second run of tenant 1: err = %v, want ErrQuotaExceeded", err)
	}
	if _, err := ex.Submit(context.Background(), k2, nl, enc); err != nil {
		t.Fatalf("tenant 2 throttled by tenant 1's quota: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first run: %v", err)
	}
	// Quota released with the run: the same tenant is admitted again.
	if _, err := ex.Submit(context.Background(), k1, nl, enc); err != nil {
		t.Fatalf("tenant 1 after drain: %v", err)
	}
	if st := ex.Stats(); st.QuotaRejects != 1 {
		t.Fatalf("QuotaRejects = %d, want 1", st.QuotaRejects)
	}

	// Gate-budget variant: a run larger than the gate cap is rejected
	// even with no contention.
	exg := NewSharedQoS(1, 1, QoSConfig{MaxQueuedGatesPerTenant: 3})
	defer exg.Close()
	kg, err := exg.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exg.Submit(context.Background(), kg, nl, enc); !errors.Is(err, qos.ErrQuotaExceeded) {
		t.Fatalf("oversized run: err = %v, want ErrQuotaExceeded", err)
	}
}

// TestSharedReleaseKey pins the lifecycle hook: a released key refuses
// new submissions, is counted in KeysReleased, and its fairness state is
// forgotten, while other keys keep working.
func TestSharedReleaseKey(t *testing.T) {
	sk, ck := keys(t)
	nl := nandChain(t, 2)
	enc := EncryptInputs(sk, []bool{true, false})

	ex := NewShared(2)
	defer ex.Close()
	k1, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}
	// Warm both tenants so workers cache engines for k1.
	for _, k := range []*SharedKey{k1, k2} {
		if _, err := ex.Submit(context.Background(), k, nl, enc); err != nil {
			t.Fatal(err)
		}
	}

	ex.ReleaseKey(k1)
	ex.ReleaseKey(k1) // idempotent: second call is a no-op
	if _, err := ex.Submit(context.Background(), k1, nl, enc); !errors.Is(err, ErrKeyReleased) {
		t.Fatalf("submit on released key: err = %v, want ErrKeyReleased", err)
	}
	outs, err := ex.Submit(context.Background(), k2, nl, enc)
	if err != nil {
		t.Fatalf("live key broken by sibling release: %v", err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d outputs", len(outs))
	}

	st := ex.Stats()
	if st.KeysReleased != 1 {
		t.Fatalf("KeysReleased = %d, want 1", st.KeysReleased)
	}
	if _, ok := st.TenantPicks[k1.ID()]; ok {
		t.Fatalf("released tenant still in fairness snapshot: %+v", st.TenantPicks)
	}
	if _, ok := st.TenantPicks[k2.ID()]; !ok {
		t.Fatalf("live tenant missing from snapshot: %+v", st.TenantPicks)
	}
}
