package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the percentiles the tail rule picks from, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tail applies the tail rule: the highest percentile of the ladder that
// leaves at least ten samples beyond it. With too few samples for any
// rung it falls back to the median, so the reported tail never rests on
// fewer than ten samples; pct and n say which percentile and how many
// samples the value stands on.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= 10 {
			return percentile(xs, p), p * 100, n
		}
	}
	return median(xs), 50, n
}

// lateness summarizes how late an open-loop generator sent its requests
// relative to their due times, in milliseconds.
func lateness(due, sent []time.Time) (p50, maxMs float64) {
	ms := make([]float64, len(due))
	for i := range due {
		ms[i] = math.Max(0, float64(sent[i].Sub(due[i]))/1e6)
		maxMs = math.Max(maxMs, ms[i])
	}
	return median(ms), maxMs
}

// span is one timed call into a layer, recorded by the benchmark itself.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Request int     `json:"request,omitempty"` // spans of one request share it
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// A disabled tracer records nothing.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns the function that closes it; the closer
// returns the span's duration, which callers use whether or not tracing
// is on.
func (t *tracer) begin(name string, parent, request int) (id int, end func() time.Duration) {
	start := time.Now()
	if t.on {
		t.mu.Lock()
		id = len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name,
			StartMs: ms(start.Sub(t.epoch))})
		t.mu.Unlock()
	}
	return id, func() time.Duration {
		d := time.Since(start)
		if t.on {
			t.mu.Lock()
			t.spans[id-1].EndMs = ms(time.Since(t.epoch))
			t.mu.Unlock()
		}
		return d
	}
}

// durations returns the durations, in seconds, of the spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndMs > 0 {
			out = append(out, (s.EndMs-s.StartMs)/1e3)
		}
	}
	return out
}

func (t *tracer) write(path string, rec map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"record": rec, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
