// Command perfbench is PyTFHE's outside-in benchmark. It drives the
// pytfhed daemon and the pytfhe compiler as subprocesses built from the
// same tree, checks every output against a plaintext reference, and
// prints one result object as the last line of standard output.
//
//	bash perfbench/run.sh --workload serve-d128 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics from a traced run (client
// spans, /metrics and /proc scrapes, a byte-counting relay, and direct
// kernel and compiler probes). README.md maps layers to metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_tail_s", "s"},
	{"throughput_boots_per_s", "boots/s"},
	{"peak_rss_mb", "MB"},
	{"program_bootstraps", "count"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload does not exercise reads 0 and is named, with the
// reason, under "absent" in the run record.
var perLayer = []metricDef{
	{"torus.half_fold_int_us", "us"},
	{"torus.half_to_torus_us", "us"},
	{"torus.mulacc_pair_us", "us"},
	{"lwe.keyswitch_ms", "ms"},
	{"gate.nand_ms", "ms"},
	{"gate.blind_rotate_share", "ratio"},
	{"gate.lut3_ms", "ms"},
	{"exec.kernel_efficiency", "ratio"},
	{"exec.worker_busy_share", "ratio"},
	{"exec.batch_fill", "count"},
	{"exec.cross_run_batches", "count"},
	{"exec.shared_bootstraps", "count"},
	{"serve.daemon_cpu_share", "ratio"},
	{"serve.plan_replays", "count"},
	{"serve.plan_fallbacks", "count"},
	{"serve.fallback_share", "ratio"},
	{"serve.plan_hit_share", "ratio"},
	{"serve.arena_high_water", "count"},
	{"serve.queue_wait_ms_mean", "ms"},
	{"serve.luts_evaluated", "count"},
	{"qos.sched_picks.bulk", "count"},
	{"qos.sched_picks.interactive", "count"},
	{"core.keygen_s", "s"},
	{"serve.open_session_s", "s"},
	{"serve.register_s", "s"},
	{"serve.warmup_eval_s", "s"},
	{"serve.daemon_rss_mb_after_setup", "MB"},
	{"core.encrypt_ms", "ms"},
	{"core.decrypt_ms", "ms"},
	{"wire.session_bytes", "bytes"},
	{"wire.register_bytes", "bytes"},
	{"wire.eval_bytes", "bytes"},
	{"frontend.build_s", "s"},
	{"frontend.alloc_mb", "MB"},
	{"synth.optimize_s", "s"},
	{"synth.alloc_mb", "MB"},
	{"synth.bootstraps_out", "count"},
	{"asm.assemble_s", "s"},
	{"asm.binary_bytes", "bytes"},
	{"noise.analyze_s", "s"},
	{"plan.compile_s", "s"},
	{"plan.exec_bootstraps", "count"},
	{"plan.levels", "count"},
	{"plan.arena_slots", "count"},
	{"loadgen.warmup_sent", "count"},
	{"loadgen.warmup_succeeded", "count"},
	{"loadgen.warmup_failed", "count"},
	{"loadgen.sent", "count"},
	{"loadgen.succeeded", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"trace.setup_s", "s"},
	{"trace.latency_p50_s", "s"},
	{"trace.throughput_boots_per_s", "boots/s"},
}

// env is what a workload runs with.
type env struct {
	seed    int64
	window  time.Duration
	trace   bool
	binDir  string // holds the pytfhed and pytfhe binaries
	workDir string // scratch space inside the checkout
	tr      *tracer
}

// outcome is what a workload measured.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	absent    map[string]string // per-layer metric -> why the layer did not run
	attempted int
	failed    int
	record    map[string]any // workload-specific run-record fields
}

func newOutcome() *outcome {
	return &outcome{
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		absent: map[string]string{},
		record: map[string]any{},
	}
}

// skip marks per-layer metrics as not exercised by this workload.
func (o *outcome) skip(reason string, names ...string) {
	for _, n := range names {
		o.absent[n] = reason
	}
}

// traceOverhead reports the traced run's own end-to-end numbers as
// per-layer metrics; their difference from the untraced medians is the
// tracing overhead.
func (o *outcome) traceOverhead() {
	o.layer["trace.setup_s"] = o.e2e["setup_s"]
	o.layer["trace.latency_p50_s"] = o.e2e["latency_p50_s"]
	o.layer["trace.throughput_boots_per_s"] = o.e2e["throughput_boots_per_s"]
}

type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{"serve-d128", runServeD128},
	{"serve-test-2tenant", runServeTwoTenant},
	{"compile-mnist-s", runCompileMNIST},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve-d128, serve-test-2tenant or compile-mnist-s")
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	binDir := flag.String("bin", "", "directory holding the pytfhed and pytfhe binaries")
	workDir := flag.String("work", "", "scratch directory for binaries the run writes")
	flag.Parse()

	if err := mainErr(*name, *seed, *seconds, *trace == 1, *binDir, *workDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds int, trace bool, binDir, workDir string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || binDir == "" || workDir == "" {
		return fmt.Errorf("need -seconds >= 1, -bin and -work")
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	e := &env{
		seed:    seed,
		window:  time.Duration(seconds) * time.Second,
		trace:   trace,
		binDir:  binDir,
		workDir: workDir,
		tr:      newTracer(trace),
	}
	out, err := wl.run(ctx, e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	defs, values := endToEnd, out.e2e
	if trace {
		defs, values = perLayer, out.layer
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			if _, absent := out.absent[d.name]; !absent {
				missing = append(missing, d.name)
			}
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: metrics not measured: %s", name, strings.Join(missing, ", "))
	}

	rec := runRecord(name, seed, seconds, trace)
	for k, v := range out.record {
		rec[k] = v
	}
	rec["failed_share"] = float64(out.failed) / float64(max(out.attempted, 1))
	if trace {
		rec["absent"] = out.absent
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := e.tr.write(path, rec); err != nil {
			return err
		}
		rec["trace_file"] = path
	}
	recLine, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(recLine))
	fmt.Println(string(resLine))
	return nil
}

// runRecord is the machine and build context every result carries.
func runRecord(name string, seed int64, seconds int, trace bool) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commitOf("."),
		"weights":    fixedWeights,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf resolves HEAD from a .git directory without running git; a
// checkout without one reports "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
				return sha
			}
		}
	}
	return "unknown"
}
