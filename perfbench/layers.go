package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pytfhe/internal/core"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/plan"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/noise"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// daemonMetrics are the per-layer metrics read from pytfhed; a workload
// without a daemon marks them absent.
var daemonMetrics = []string{
	"exec.kernel_efficiency", "exec.worker_busy_share", "exec.batch_fill",
	"exec.cross_run_batches", "exec.shared_bootstraps", "serve.daemon_cpu_share",
	"serve.plan_replays", "serve.plan_fallbacks", "serve.fallback_share",
	"serve.plan_hit_share", "serve.arena_high_water", "serve.queue_wait_ms_mean",
	"serve.luts_evaluated", "qos.sched_picks.bulk", "qos.sched_picks.interactive",
	"core.keygen_s", "serve.open_session_s", "serve.register_s", "serve.warmup_eval_s",
	"serve.daemon_rss_mb_after_setup", "core.encrypt_ms", "core.decrypt_ms",
	"wire.session_bytes", "wire.register_bytes", "wire.eval_bytes",
	"loadgen.warmup_sent", "loadgen.warmup_succeeded", "loadgen.warmup_failed",
	"loadgen.sent", "loadgen.succeeded", "loadgen.failed",
	"loadgen.late_p50_ms", "loadgen.late_max_ms",
}

// kernelMetrics are the per-layer metrics of the direct kernel probes.
var kernelMetrics = []string{
	"torus.half_fold_int_us", "torus.half_to_torus_us", "torus.mulacc_pair_us",
	"lwe.keyswitch_ms", "gate.nand_ms", "gate.blind_rotate_share", "gate.lut3_ms",
}

// daemonDeltas holds the /metrics and /proc readings around a window.
type daemonDeltas struct {
	before, after promSnapshot
	p0, p1        procSample
	labels        map[string]string // tenant role -> /metrics tenant label
}

// counter sets metric to the series' change over the window, or marks it
// absent when the daemon no longer exports the series.
func (d daemonDeltas) counter(out *outcome, metric, series string) (float64, bool) {
	v, ok := delta(d.before, d.after, series)
	if !ok {
		out.absent[metric] = "series " + series + " not exported by pytfhed"
		return 0, false
	}
	out.layer[metric] = v
	return v, true
}

// ratio sets metric to num/den, or marks it absent with why when the
// denominator is missing or zero.
func ratio(out *outcome, metric string, num, den float64, ok bool, why string) {
	if !ok || den == 0 {
		out.absent[metric] = why
		return
	}
	out.layer[metric] = num / den
}

// daemonLayers derives the executor, plan, serve and qos metrics from the
// /metrics deltas and /proc readings over the window.
func daemonLayers(out *outcome, d daemonDeltas, w windowSummary) {
	busy, ok1 := delta(d.before, d.after, "pytfhed_worker_busy_ms_total")
	workers, ok2 := d.after["pytfhed_workers"]
	ratio(out, "exec.worker_busy_share", busy, float64(w.span.Milliseconds())*workers, ok1 && ok2,
		"pytfhed_worker_busy_ms_total or pytfhed_workers not exported")

	wall := d.p1.sampledAt.Sub(d.p0.sampledAt)
	ratio(out, "serve.daemon_cpu_share", float64(d.p1.cpu-d.p0.cpu), float64(wall)*float64(runtime.NumCPU()), true, "")

	batches, okB := delta(d.before, d.after, "pytfhed_batches_total")
	batched, okBB := delta(d.before, d.after, "pytfhed_batched_bootstraps_total")
	ratio(out, "exec.batch_fill", batched, batches, okB && okBB, "no batched dispatch in the window")
	d.counter(out, "exec.cross_run_batches", "pytfhed_cross_run_batches_total")
	d.counter(out, "exec.shared_bootstraps", "pytfhed_executor_bootstraps_total")

	replays, okR := d.counter(out, "serve.plan_replays", "pytfhed_plan_replays_total")
	fallbacks, okF := d.counter(out, "serve.plan_fallbacks", "pytfhed_plan_fallbacks_total")
	ratio(out, "serve.fallback_share", fallbacks, replays+fallbacks, okR && okF, "no plan replays or fallbacks in the window")
	hits, okH := delta(d.before, d.after, "pytfhed_plan_hits_total")
	misses, okM := delta(d.before, d.after, "pytfhed_plan_misses_total")
	ratio(out, "serve.plan_hit_share", hits, hits+misses, okH && okM, "no plan lookups in the window")
	if v, ok := d.after["pytfhed_arena_high_water"]; ok {
		out.layer["serve.arena_high_water"] = v
	} else {
		out.absent["serve.arena_high_water"] = "series pytfhed_arena_high_water not exported by pytfhed"
	}
	if v, ok := histMeanDelta(d.before, d.after, "pytfhed_queue_wait_ms"); ok {
		out.layer["serve.queue_wait_ms_mean"] = v
	} else {
		out.absent["serve.queue_wait_ms_mean"] = "no pytfhed_queue_wait_ms observations in the window"
	}
	d.counter(out, "serve.luts_evaluated", "pytfhed_luts_evaluated_total")
	for _, role := range []string{"bulk", "interactive"} {
		metric := "qos.sched_picks." + role
		label, ok := d.labels[role]
		if !ok {
			out.absent[metric] = "workload has no " + role + " tenant"
			continue
		}
		// The series for a tenant appears once the fair scheduler first
		// picks its work; plan replay bypasses that scheduler.
		if v, ok := delta(d.before, d.after, fmt.Sprintf("pytfhed_sched_picks_total{tenant=%q}", label)); ok {
			out.layer[metric] = v
		} else {
			out.absent[metric] = "no pytfhed_sched_picks_total series for tenant " + label + ": the fair scheduler picked none of its work"
		}
	}
}

// clientLayers derives the client-side metrics: set-up spans, encryption
// and decryption, generator counts and open-loop lateness.
func clientLayers(out *outcome, e *env, warm, recs []reqRecord) {
	for metric, spanName := range map[string]string{
		"core.keygen_s":        "core.keygen",
		"serve.open_session_s": "serve.open_session",
		"serve.register_s":     "serve.register",
		"serve.warmup_eval_s":  "serve.warmup_eval",
	} {
		out.layer[metric] = median(e.tr.durations(spanName))
	}
	var enc, dec []float64
	var due, sent []time.Time
	var ok int
	for _, r := range recs {
		enc = append(enc, r.encryptS*1e3)
		if r.err == nil {
			ok++
			dec = append(dec, r.decryptS*1e3)
		}
		if r.openLoop {
			due, sent = append(due, r.due), append(sent, r.sent)
		}
	}
	out.layer["core.encrypt_ms"] = median(enc)
	out.layer["core.decrypt_ms"] = median(dec)
	out.layer["loadgen.sent"] = float64(len(recs))
	out.layer["loadgen.succeeded"] = float64(ok)
	out.layer["loadgen.failed"] = float64(len(recs) - ok)
	var warmOK int
	for _, r := range warm {
		if r.err == nil {
			warmOK++
		}
	}
	out.layer["loadgen.warmup_sent"] = float64(len(warm))
	out.layer["loadgen.warmup_succeeded"] = float64(warmOK)
	out.layer["loadgen.warmup_failed"] = float64(len(warm) - warmOK)
	if len(due) == 0 {
		out.skip("closed-loop workload: no send schedule to be late against", "loadgen.late_p50_ms", "loadgen.late_max_ms")
		return
	}
	out.layer["loadgen.late_p50_ms"], out.layer["loadgen.late_max_ms"] = lateness(due, sent)
}

// perCallUs is the median per-call time of f in microseconds, over 15
// batches each long enough (≥2 ms) for the clock to resolve.
func perCallUs(f func()) float64 {
	reps := 1
	for {
		t := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if time.Since(t) >= 2*time.Millisecond {
			break
		}
		reps *= 2
	}
	samples := make([]float64, 15)
	for s := range samples {
		t := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		samples[s] = float64(time.Since(t)) / 1e3 / float64(reps)
	}
	return median(samples)
}

// medianMs is the median of k timed calls of f in milliseconds, after one
// untimed warm-up call; the first error stops it.
func medianMs(k int, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	samples := make([]float64, k)
	for i := range samples {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		samples[i] = float64(time.Since(t)) / 1e6
	}
	return median(samples), nil
}

// kernelProbes times the kernel layers by direct calls under the
// workload's key: the half-complex torus transforms at its ring degree,
// one key switch, one NAND and one 3-input LUT bootstrap. Each probe
// checks its result, so a broken kernel fails the run.
func kernelProbes(out *outcome, kp *core.KeyPair) error {
	p := kp.Cloud.Params
	n := p.PolyDegree
	rng := rand.New(rand.NewSource(1))
	proc := torus.NewProcessor(n)
	ip, tp, acc := torus.NewIntPoly(n), torus.NewTorusPoly(n), torus.NewTorusPoly(n)
	for i := 0; i < n; i++ {
		ip.Coefs[i] = int32(rng.Intn(256) - 128)
		tp.Coefs[i] = rng.Uint32()
	}
	h := make([]*torus.HalfPoly, 5)
	for i := range h {
		h[i] = torus.NewHalfPoly(proc.HalfM())
	}
	proc.HalfFoldInt(h[1], ip)
	proc.HalfFoldTorus(h[2], tp)
	proc.HalfFoldInt(h[3], ip)
	proc.HalfFoldTorus(h[4], tp)
	out.layer["torus.half_fold_int_us"] = perCallUs(func() { proc.HalfFoldInt(h[0], ip) })
	out.layer["torus.half_to_torus_us"] = perCallUs(func() { proc.AddHalfToTorus(acc, h[2]) })
	out.layer["torus.mulacc_pair_us"] = perCallUs(func() { h[0].MulAccPairTo(h[1], h[2], h[3], h[4]) })

	k := 15
	if p.PolyDegree >= 1024 {
		k = 5 // a production bootstrap takes ~0.2 s
	}
	src := lwe.NewSample(p.ExtractedLWEDimension())
	lwe.Encrypt(src, torus.ModSwitchToTorus32(1, 8), p.LWEStdev, kp.Secret.Extracted, trand.NewSeeded([]byte("perfbench-ks")))
	dst := lwe.NewSample(p.LWEDimension)
	ks, err := medianMs(3*k, func() error { return kp.Cloud.KS.Apply(dst, src) })
	if err != nil {
		return fmt.Errorf("key switch probe: %w", err)
	}
	if got := lwe.Decrypt(dst, kp.Secret.LWE, 8); got != 1 {
		return fmt.Errorf("key switch probe: decrypted %d, want 1", got)
	}

	eng := gate.NewEngine(kp.Cloud)
	erng := trand.NewSeeded([]byte("perfbench-gate"))
	in := make([]*gate.Ciphertext, 3)
	for i, bit := range []bool{true, false, true} {
		in[i] = gate.NewCiphertext(p)
		gate.Encrypt(in[i], bit, kp.Secret, erng)
	}
	res := gate.NewCiphertext(p)
	nand, err := medianMs(k, func() error { return eng.Binary(logic.NAND, res, in[0], in[1]) })
	if err != nil {
		return fmt.Errorf("nand probe: %w", err)
	}
	if !gate.Decrypt(res, kp.Secret) {
		return fmt.Errorf("nand probe: NAND(1,0) decrypted to 0")
	}
	const majority = logic.TT(0xE8)
	lut3, err := medianMs(k, func() error { return eng.LUT(3, majority, res, in...) })
	if err != nil {
		return fmt.Errorf("lut probe: %w", err)
	}
	if !gate.Decrypt(res, kp.Secret) {
		return fmt.Errorf("lut probe: MAJ(1,0,1) decrypted to 0")
	}
	out.layer["lwe.keyswitch_ms"] = ks
	out.layer["gate.nand_ms"] = nand
	out.layer["gate.blind_rotate_share"] = 1 - ks/nand
	out.layer["gate.lut3_ms"] = lut3
	out.record["kernel_params"] = p.Name
	return nil
}

// stageMetrics are the per-layer metrics of the split compile.
var stageMetrics = []string{"frontend.build_s", "frontend.alloc_mb", "synth.optimize_s", "synth.alloc_mb", "asm.assemble_s"}

// compileProbes reports the compiler layers of one program — frontend,
// synthesis, assembly, timed on a compile split into those steps — and
// times the noise analysis and plan compile the daemon's admission and
// warm-up run on core.Compile's netlist. The split is a copy of the
// compiler's pipeline; where its bootstrap count no longer matches
// core.Compile's, its timings are marked absent rather than reported.
func compileProbes(out *outcome, tr *tracer, p *program, np *params.GateParams) error {
	cs, err := p.stages(tr)
	if err != nil {
		return fmt.Errorf("stage probe: %w", err)
	}
	if got, want := cs.netlist.ComputeStats().Bootstrapped, p.prog.Stats.Bootstrapped; got != want {
		out.skip(fmt.Sprintf("the stage split yields %d bootstraps where core.Compile yields %d, so it no longer times the compiler's pipeline", got, want), stageMetrics...)
	} else {
		out.layer["frontend.build_s"] = cs.frontendS
		out.layer["frontend.alloc_mb"] = cs.frontendMB
		out.layer["synth.optimize_s"] = cs.synthS
		out.layer["synth.alloc_mb"] = cs.synthMB
		out.layer["asm.assemble_s"] = cs.asmS
	}
	out.layer["synth.bootstraps_out"] = float64(p.prog.Stats.Bootstrapped)
	out.layer["asm.binary_bytes"] = float64(len(p.prog.Binary))

	t := time.Now()
	if _, err := noise.AnalyzeNetlist(p.prog.Netlist, np, 0); err != nil {
		return fmt.Errorf("noise probe: %w", err)
	}
	out.layer["noise.analyze_s"] = time.Since(t).Seconds()
	t = time.Now()
	pl, err := plan.Compile(p.prog.Netlist, runtime.NumCPU())
	if err != nil {
		return fmt.Errorf("plan probe: %w", err)
	}
	out.layer["plan.compile_s"] = time.Since(t).Seconds()
	st := pl.Stats()
	out.layer["plan.exec_bootstraps"] = float64(st.ExecBootstraps)
	out.layer["plan.levels"] = float64(st.Levels)
	out.layer["plan.arena_slots"] = float64(st.ArenaSlots)
	out.record["noise_params"] = np.Name
	return nil
}
