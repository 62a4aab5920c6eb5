package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..n, so the p-quantile is ceil(p·n)
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
		wantV   float64
	}{
		{5, 50, 3},
		{39, 50, 20},
		{40, 75, 30},
		{100, 90, 90},
		{199, 90, 180},
		{200, 95, 190},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		v, pct, n := tail(seq(c.n))
		if pct != c.wantPct || v != c.wantV || n != c.n {
			t.Errorf("n=%d: tail = (%v, p%v, n=%d), want (%v, p%v)", c.n, v, pct, n, c.wantV, c.wantPct)
		}
		if beyond := c.n - int(c.wantV); pct != 50 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, pct)
		}
	}
	if v, _, n := tail(nil); v != 0 || n != 0 {
		t.Errorf("tail(nil) = %v, n=%d", v, n)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if p := percentile(seq(10), 0.9); p != 9 {
		t.Errorf("p90 of 1..10 = %v", p)
	}
}

const promText = `# HELP pytfhed_plan_replays_total Evaluations served by capture/replay.
# TYPE pytfhed_plan_replays_total counter
pytfhed_plan_replays_total 12
pytfhed_workers 2
pytfhed_sched_picks_total{tenant="ab12cd34"} 40
pytfhed_queue_wait_ms_bucket{le="+Inf"} 4
pytfhed_queue_wait_ms_sum 10.5
pytfhed_queue_wait_ms_count 4
go_goroutines 9

`

func TestParsePromKeepsPrefixedSeries(t *testing.T) {
	s, err := parseProm(strings.NewReader(promText), "pytfhed_")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"pytfhed_plan_replays_total":                   12,
		"pytfhed_workers":                              2,
		`pytfhed_sched_picks_total{tenant="ab12cd34"}`: 40,
		`pytfhed_queue_wait_ms_bucket{le="+Inf"}`:      4,
		"pytfhed_queue_wait_ms_sum":                    10.5,
		"pytfhed_queue_wait_ms_count":                  4,
	}
	if len(s) != len(want) {
		t.Fatalf("parsed %d series, want %d: %v", len(s), len(want), s)
	}
	for k, v := range want {
		if s[k] != v {
			t.Errorf("%s = %v, want %v", k, s[k], v)
		}
	}
	if _, err := parseProm(strings.NewReader("pytfhed_x{a=\"b\"}\n"), "pytfhed_"); err == nil {
		t.Error("a series without a value parsed")
	}
	if _, err := parseProm(strings.NewReader("pytfhed_x abc\n"), "pytfhed_"); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestDeltaTreatsMissingSeriesAsAbsent(t *testing.T) {
	before := promSnapshot{"pytfhed_a": 3, "pytfhed_h_sum": 10, "pytfhed_h_count": 2}
	after := promSnapshot{"pytfhed_a": 8, "pytfhed_h_sum": 40, "pytfhed_h_count": 5}
	if d, ok := delta(before, after, "pytfhed_a"); !ok || d != 5 {
		t.Errorf("delta = %v, %v", d, ok)
	}
	if _, ok := delta(before, after, "pytfhed_gone"); ok {
		t.Error("a series missing from both scrapes read as present")
	}
	if _, ok := delta(before, promSnapshot{}, "pytfhed_a"); ok {
		t.Error("a series dropped between scrapes read as present")
	}
	if d, ok := delta(promSnapshot{}, after, "pytfhed_a"); !ok || d != 8 {
		t.Errorf("a series that appeared between scrapes: delta = %v, %v; want 8, true", d, ok)
	}
	if m, ok := histMeanDelta(before, after, "pytfhed_h"); !ok || m != 10 {
		t.Errorf("histogram mean = %v, %v; want 10", m, ok)
	}
	if _, ok := histMeanDelta(after, after, "pytfhed_h"); ok {
		t.Error("a histogram with no new observations produced a mean")
	}
}

func TestRelayCountsBytesEachWay(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The target answers every request with twice as many bytes.
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1000)
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		_, _ = c.Write(append(buf, buf...))
	}()
	r, err := newRelay(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 2000)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	r.close()
	if up, down := r.up.Load(), r.down.Load(); up != 1000 || down != 2000 || r.bytes() != 3000 {
		t.Errorf("relay counted up=%d down=%d, want 1000 and 2000", up, down)
	}
}

func TestLatenessClampsEarlySends(t *testing.T) {
	t0 := time.Unix(100, 0)
	due := []time.Time{t0, t0.Add(500 * time.Millisecond), t0.Add(time.Second)}
	sent := []time.Time{
		t0.Add(-time.Millisecond),                         // early: counts as on time
		t0.Add(500*time.Millisecond + 2*time.Millisecond), // 2 ms late
		t0.Add(time.Second + 30*time.Millisecond),         // 30 ms late
	}
	p50, maxMs := lateness(due, sent)
	if p50 != 2 || maxMs != 30 {
		t.Errorf("lateness = p50 %v, max %v; want 2, 30", p50, maxMs)
	}
}

func TestReadProcSelf(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if s.rssMB <= 0 || s.hwmMB < s.rssMB {
		t.Errorf("rss %v MB, hwm %v MB", s.rssMB, s.hwmMB)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the names and units the
// benchmark prints in step with the contract file beside it.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark directory")
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestRepeatForEnds(t *testing.T) {
	ctx := context.Background()
	n, err := repeatFor(ctx, time.Hour, func() error { return errors.New("wrong output") })
	if n != 1 || err == nil {
		t.Errorf("failing step: %d calls, err %v; want 1 call and its error", n, err)
	}
	calls := 0
	n, err = repeatFor(ctx, 20*time.Millisecond, func() error {
		calls++
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err != nil || n != calls || n < 1 || n > 6 {
		t.Errorf("passing step over a 20 ms window: %d calls (counted %d), err %v", n, calls, err)
	}
	n, _ = repeatFor(ctx, 0, func() error { return nil })
	if n != 1 {
		t.Errorf("empty window: %d calls, want 1", n)
	}
}
