package serve

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pytfhe/internal/qos"
	"pytfhe/internal/wire"
)

// evalOnce registers prog on a fresh connection, opens kp's session, and
// runs one evaluation, returning the decrypted result.
func evalOnce(t *testing.T, srv *Server, kpIdx int, width int, a, b uint64) uint64 {
	t.Helper()
	kp := tenantKeys(t)[kpIdx]
	prog := adderProg(t, width)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OpenSession(kp.Cloud); err != nil {
		t.Fatal(err)
	}
	outs, err := cl.Evaluate(info.Hash, kp.EncryptBits(append(bitsOf(a, width), bitsOf(b, width)...)))
	if err != nil {
		t.Fatal(err)
	}
	return uintOf(kp.DecryptBits(outs))
}

// TestServePlanCacheEviction pins the byte-capped plan cache: with a cap
// that holds roughly one compiled plan, registering and evaluating
// several programs stays under the cap, evicts the cold plans, and an
// evicted program still evaluates correctly (transparent recompile).
func TestServePlanCacheEviction(t *testing.T) {
	// An adder plan is ~1 KiB accounted; cap the cache below the sum of
	// the three widths below so later compiles must evict.
	srv := startServer(t, Config{Workers: 1, PlanCacheBytes: 2 << 10})

	for i, width := range []int{3, 4, 5} {
		if got := evalOnce(t, srv, 0, width, 2, 3); got != 5 {
			t.Fatalf("program %d: 2+3 = %d", i, got)
		}
	}
	st := srv.statsSnapshot()
	if st.PlanCache.Bytes > st.PlanCache.CapBytes {
		t.Fatalf("plan cache over cap: %+v", st.PlanCache)
	}
	if st.PlanCache.Evictions == 0 {
		t.Fatalf("no evictions despite %d compiles into a %d-byte cap: %+v",
			st.PlanMisses, st.PlanCache.CapBytes, st.PlanCache)
	}
	misses := st.PlanMisses

	// The width-3 plan was evicted long ago; evaluating it again must
	// recompile (a fresh PlanMiss) and still be correct.
	if got := evalOnce(t, srv, 0, 3, 3, 4); got != 7 {
		t.Fatalf("re-eval after eviction: 3+4 = %d", got)
	}
	if st2 := srv.statsSnapshot(); st2.PlanMisses <= misses {
		t.Fatalf("evicted plan did not recompile: misses %d -> %d", misses, st2.PlanMisses)
	}
}

// TestServeKeyLifecycleRelease pins the session-refcounted key release:
// while any session under a key is open the key's executor engines and
// replay runner stay cached; when the last one closes they are released,
// the release is counted as a runtime-cache eviction, and a later
// session under the same key transparently rebuilds everything.
func TestServeKeyLifecycleRelease(t *testing.T) {
	kp := tenantKeys(t)[0]
	prog := adder4Prog(t)
	srv := startServer(t, Config{Workers: 1})

	open := func() *Client {
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.RegisterProgram(prog.Binary); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.OpenSession(kp.Cloud); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	hash := hashBytes(prog.Binary)

	cl1, cl2 := open(), open()
	if _, err := cl1.Evaluate(hash, kp.EncryptBits(bitsOf(0x35, 8))); err != nil {
		t.Fatal(err)
	}
	if st := srv.statsSnapshot(); st.RuntimeCache.Entries != 1 {
		t.Fatalf("runtime cache entries = %d after first replay, want 1", st.RuntimeCache.Entries)
	}

	// First session closes: the key is still claimed by cl2, so nothing
	// is released and cl2 keeps evaluating.
	cl1.Close()
	deadline := time.Now().Add(5 * time.Second)
	if _, err := cl2.Evaluate(hash, kp.EncryptBits(bitsOf(0x11, 8))); err != nil {
		t.Fatal(err)
	}
	if st := srv.statsSnapshot(); st.KeysReleased != 0 {
		t.Fatalf("key released while a session still holds it: %+v", st)
	}

	// Last session closes: release must land (asynchronously).
	cl2.Close()
	for {
		st := srv.statsSnapshot()
		if st.KeysReleased == 1 && st.RuntimeCache.Entries == 0 && st.RuntimeCache.Evictions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lifecycle release never landed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The same key opens again and everything rebuilds transparently.
	cl3 := open()
	defer cl3.Close()
	outs, err := cl3.Evaluate(hash, kp.EncryptBits(bitsOf(0x35, 8)))
	if err != nil {
		t.Fatalf("eval after lifecycle release: %v", err)
	}
	if got := uintOf(kp.DecryptBits(outs)); got != 0x3+0x5 {
		t.Fatalf("post-release eval = %#x", got)
	}
}

// TestServeTenantQuota pins per-tenant admission quotas end to end: the
// typed error crosses the wire, the gate budget rejects deterministically,
// and under concurrency one tenant's in-flight cap does not throttle the
// other tenant.
func TestServeTenantQuota(t *testing.T) {
	kps := tenantKeys(t)
	prog := adder4Prog(t)

	// Gate budget: the adder has more than 3 gates, so every evaluation
	// of it is over budget — rejected with the typed error, no slot used.
	srv := startServer(t, Config{Workers: 1, TenantMaxQueuedGates: 3})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OpenSession(kps[0].Cloud); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Evaluate(info.Hash, kps[0].EncryptBits(bitsOf(0, 8)))
	if !errors.Is(err, ErrQuotaExceeded) || !errors.Is(err, qos.ErrQuotaExceeded) {
		t.Fatalf("gate-budget overflow: err = %v, want ErrQuotaExceeded", err)
	}
	if st := srv.statsSnapshot(); st.QuotaRejected != 1 {
		t.Fatalf("QuotaRejected = %d, want 1", st.QuotaRejected)
	}

	// In-flight cap: tenant 0 runs two connections against a cap of one
	// concurrent evaluation; overlap must produce a quota rejection on
	// tenant 0 while tenant 1 keeps evaluating untouched.
	srv2 := startServer(t, Config{Workers: 1, MaxConcurrent: 2, TenantMaxInFlight: 1})
	dial := func(kpIdx int) *Client {
		c, err := Dial(srv2.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RegisterProgram(prog.Binary); err != nil {
			t.Fatal(err)
		}
		if _, err := c.OpenSession(kps[kpIdx].Cloud); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a1, a2, b1 := dial(0), dial(0), dial(1)
	defer a1.Close()
	defer a2.Close()
	defer b1.Close()

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Tenant 0's first connection keeps an evaluation in flight;
			// quota rejections here are fine too (both conns share the cap).
			_, err := a1.Evaluate(info.Hash, kps[0].EncryptBits(bitsOf(0x21, 8)))
			if err != nil && !errors.Is(err, ErrQuotaExceeded) {
				return
			}
		}
	}()
	sawQuota := false
	deadline := time.Now().Add(20 * time.Second)
	for !sawQuota && time.Now().Before(deadline) {
		if _, err := a2.Evaluate(info.Hash, kps[0].EncryptBits(bitsOf(0x21, 8))); errors.Is(err, ErrQuotaExceeded) {
			sawQuota = true
		} else if err != nil {
			t.Fatalf("tenant 0: %v", err)
		}
		// Tenant 1 is never throttled by tenant 0's cap.
		if _, err := b1.Evaluate(info.Hash, kps[1].EncryptBits(bitsOf(0x21, 8))); err != nil {
			t.Fatalf("tenant 1 throttled: %v", err)
		}
	}
	close(stop)
	if !sawQuota {
		t.Fatal("tenant 0 never hit its in-flight cap despite concurrent connections")
	}
}

// TestServeMetricsEndpoint drives the daemon with the /metrics listener
// on and checks the exposition end to end: the endpoint serves the
// Prometheus text format, the key series exist, and they move as
// requests are served.
func TestServeMetricsEndpoint(t *testing.T) {
	kp := tenantKeys(t)[0]
	prog := adder4Prog(t)
	srv := startServer(t, Config{Workers: 1, MetricsAddr: "127.0.0.1:0"})
	if srv.MetricsAddr() == "" {
		t.Fatal("metrics listener not bound")
	}

	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + srv.MetricsAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Before any traffic: the endpoint serves, and unlabeled families are
	// present with zero values.
	first := scrape()
	for _, want := range []string{
		"# TYPE pytfhed_evaluations_total counter",
		"# TYPE pytfhed_queue_depth gauge",
		"pytfhed_evaluations_total 0",
		`pytfhed_cache_bytes{cache="plan"}`,
		`pytfhed_cache_bytes{cache="runtime"}`,
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("scrape missing %q:\n%s", want, first)
		}
	}

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OpenSession(kp.Cloud); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Evaluate(info.Hash, kp.EncryptBits(bitsOf(0x53, 8))); err != nil {
			t.Fatal(err)
		}
	}

	keyHash, err := wire.KeyHash(kp.Cloud)
	if err != nil {
		t.Fatal(err)
	}
	tenant := tenantLabel(keyHash)
	second := scrape()
	for _, want := range []string{
		"# TYPE pytfhed_request_latency_ms histogram",
		"pytfhed_evaluations_total 3",
		`pytfhed_requests_total{tenant="` + tenant + `",outcome="ok"} 3`,
		`pytfhed_request_latency_ms_count{tenant="` + tenant + `"} 3`,
		"pytfhed_sessions_total 1",
		"pytfhed_plan_misses_total 1",
		"pytfhed_executor_gates_total",
		"pytfhed_plan_replays_total 3",
		"pytfhed_uptime_seconds",
	} {
		if !strings.Contains(second, want) {
			t.Fatalf("scrape missing %q:\n%s", want, second)
		}
	}
	// Plan cache hits moved between scrapes (evals 2 and 3 hit).
	if !strings.Contains(second, `pytfhed_cache_hits_total{cache="plan"} 2`) {
		t.Fatalf("plan cache hit series did not move:\n%s", second)
	}

	// Every non-comment line is NAME or NAME{labels}, one float value.
	for _, line := range strings.Split(strings.TrimSpace(second), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}
