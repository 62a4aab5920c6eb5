package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/core"
	"pytfhe/internal/models"
	"pytfhe/internal/params"
)

// mnistDType is the element type `pytfhe compile -mnist S` defaults to.
var mnistDType = chiseltorch.NewFixed(8, 8)

// runCompileMNIST runs `pytfhe compile -mnist S -dtype fixed8.8` on the
// paper's full MNIST_S back to back for the window. After the window it
// compiles the same model in-process and checks every emitted binary
// against that reference: core.Load succeeds, the bootstrap count
// matches, and core.RunPlain on a seeded digit equals ChiselTorch's
// Infer. The reference is built after the compiles so that perfbench
// holds no netlist while they run.
func runCompileMNIST(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	var paths []string
	var walls, peaks []float64
	var n int
	attempts, err := repeatFor(ctx, e.window, func() error {
		n++
		path := filepath.Join(e.workDir, fmt.Sprintf("mnist_s-%d.ptfhe", n))
		wall, hwmMB, err := compileOnce(ctx, e, path)
		if err != nil {
			return err
		}
		paths = append(paths, path)
		walls = append(walls, wall)
		peaks = append(peaks, hwmMB)
		return nil
	})
	defer func() {
		for _, p := range paths {
			os.Remove(p)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out.attempted = attempts
	if err != nil {
		out.failed++ // a failing compile fails the same way again
		fmt.Fprintf(os.Stderr, "compile: %v\n", err)
	}

	ref, err := modelProgram("MNIST_S", models.MNISTS(), mnistDType)
	if err != nil {
		return nil, err
	}
	refBoots := ref.prog.Stats.Bootstrapped
	if e.trace {
		if err := compileProbes(out, e.tr, ref, params.Default128()); err != nil {
			return nil, err
		}
	}
	digit, check := ref.request(rand.New(rand.NewSource(e.seed)))
	// Only the count, the digit and its expected output are kept; the
	// reference netlists must not sit in memory beside the loads.
	ref = nil
	runtime.GC()
	debug.FreeOSMemory()

	var okWalls, okPeaks, loads []float64
	var boots, progBoots int
	for i, path := range paths {
		got, loadS, err := checkBinary(e, path, refBoots, digit, check)
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "compile output %s: %v\n", path, err)
			continue
		}
		okWalls = append(okWalls, walls[i])
		okPeaks = append(okPeaks, peaks[i])
		loads = append(loads, loadS...)
		boots += got
		progBoots = got
	}
	var total float64
	for _, w := range okWalls {
		total += w
	}
	tailV, tailP, tailN := tail(okWalls)
	out.e2e["setup_s"] = median(loads)
	out.e2e["latency_p50_s"] = median(okWalls)
	out.e2e["latency_tail_s"] = tailV
	if total > 0 {
		out.e2e["throughput_boots_per_s"] = float64(boots) / total
	}
	// The peak moves with when the compiler's GC runs, so a run reports
	// the median of its compiles' peaks.
	out.e2e["peak_rss_mb"] = median(okPeaks)
	out.e2e["program_bootstraps"] = float64(progBoots)
	out.record["compile_samples_s"] = walls
	out.record["load_samples_s"] = loads
	out.record["peak_rss_samples_mb"] = peaks
	out.record["latency_tail"] = map[string]any{"percentile": tailP, "n": tailN}
	out.record["reference_bootstraps"] = refBoots

	if e.trace {
		out.skip("no daemon runs in a compile workload", daemonMetrics...)
		out.skip("the kernel layers do not run in a compile workload", kernelMetrics...)
		out.traceOverhead()
	}
	return out, nil
}

// repeatFor calls step back to back until the window has passed, at
// least once, and stops at the first error. It returns how many calls it
// made.
func repeatFor(ctx context.Context, window time.Duration, step func() error) (int, error) {
	start := time.Now()
	n := 0
	for ctx.Err() == nil && (n == 0 || time.Since(start) < window) {
		n++
		if err := step(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// checkBinary loads one emitted binary three times — core.Load is the
// deploy-side set-up of a compiled program, so setup_s is the median of
// the loads — and checks its bootstrap count and plaintext output. It
// returns the bootstrap count and the load times.
func checkBinary(e *env, path string, refBoots int, digit []bool, check func([]bool) error) (int, []float64, error) {
	bin, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	var prog *core.Program
	var loadS []float64
	for i := 0; i < 3; i++ {
		_, end := e.tr.begin("core.load", 0, 0)
		prog, err = core.Load(bin)
		loadS = append(loadS, end().Seconds())
		if err != nil {
			return 0, nil, err
		}
	}
	if got := prog.Stats.Bootstrapped; got != refBoots {
		return 0, nil, fmt.Errorf("binary has %d bootstraps, in-process compile %d", got, refBoots)
	}
	got, err := core.RunPlain(prog, digit)
	if err != nil {
		return 0, nil, err
	}
	if err := check(got); err != nil {
		return 0, nil, err
	}
	return prog.Stats.Bootstrapped, loadS, nil
}

// hwmPoll is how often compileOnce reads the compiler's VmHWM.
const hwmPoll = 10 * time.Millisecond

// compileOnce runs one pytfhe compile and returns its wall time and its
// peak resident set. The peak is the largest VmHWM read from
// /proc/<pid>/status while the compiler runs: the child's rusage maxrss
// would not do, because at exec the kernel carries the parent's
// high-water mark into it, so it would read at least perfbench's own.
func compileOnce(ctx context.Context, e *env, outPath string) (wallS, hwmMB float64, err error) {
	cmd := exec.CommandContext(ctx, filepath.Join(e.binDir, "pytfhe"),
		"compile", "-mnist", "S", "-dtype", "fixed8.8", "-out", outPath)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	_, end := e.tr.begin("pytfhe.compile", 0, 0)
	if err := cmd.Start(); err != nil {
		end()
		return 0, 0, fmt.Errorf("pytfhe compile: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(hwmPoll)
	defer tick.Stop()
	for {
		// Once the compiler has exited its status has no VmHWM line, so
		// a read between exit and Wait adds nothing.
		if s, err := readProc(cmd.Process.Pid); err == nil {
			hwmMB = max(hwmMB, s.hwmMB)
		}
		select {
		case err := <-done:
			wallS = end().Seconds()
			if err != nil {
				return 0, 0, fmt.Errorf("pytfhe compile: %w", err)
			}
			return wallS, hwmMB, nil
		case <-tick.C:
		}
	}
}
