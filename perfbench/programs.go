package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"pytfhe/internal/asm"
	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/circuit"
	"pytfhe/internal/core"
	"pytfhe/internal/models"
	"pytfhe/internal/synth"
	"pytfhe/internal/vipbench"
)

// fixedWeights is each program's bootstrap count when this benchmark was
// written (standard gate pipeline, no LUT clustering). Throughput is
// Σ weight of correct requests per second, so a later compiler change
// that needs fewer bootstraps for the same request reads as a gain.
var fixedWeights = map[string]int{
	"primality":      55,
	"string-search":  162,
	"mnist_s-slice5": 4899,
	"MNIST_S":        2002881,
}

// program is one registered program plus the generator of its requests.
type program struct {
	name   string
	weight int
	prog   *core.Program // core.Compile's output: binary, netlist and stats
	// stages compiles the program again, split into the frontend,
	// synthesis and assembly steps, for the traced run's stage spans.
	stages func(tr *tracer) (*compileStages, error)
	// request draws one plaintext input and returns the check its
	// decrypted output must pass.
	request func(rng *rand.Rand) (in []bool, check func(out []bool) error)
}

// compileStages is a program's compile split into its steps and timed
// per layer.
type compileStages struct {
	frontendS, synthS, asmS float64
	frontendMB, synthMB     float64
	netlist                 *circuit.Netlist
}

// allocMB is the bytes the Go runtime allocated since a previous reading.
func allocMB(before uint64) float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc-before) / (1 << 20)
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// stage times one step and records its allocation volume.
func stage(tr *tracer, name string, f func() error) (secs, mb float64, err error) {
	a := totalAlloc()
	_, end := tr.begin(name, 0, 0)
	err = f()
	return end().Seconds(), allocMB(a), err
}

// splitVIP is b.Build followed by core.Compile, split into steps.
func splitVIP(tr *tracer, b vipbench.Benchmark) (*compileStages, error) {
	cs := &compileStages{}
	var raw *circuit.Netlist
	var err error
	// vipbench's Build already runs the frontend's own optimization.
	if cs.frontendS, cs.frontendMB, err = stage(tr, "frontend.build", func() (e error) {
		raw, e = b.Build()
		return e
	}); err != nil {
		return nil, err
	}
	return cs, cs.finish(tr, raw)
}

// splitModel is vipbench.CompileMNIST followed by core.Compile, split
// into steps: ChiselTorch's forward pass and netlist build, then
// Model.Compile's synthesis and core.Compile's synthesis and assembly.
func splitModel(tr *tracer, spec models.MNISTSpec, dt chiseltorch.DType) (*compileStages, error) {
	cs := &compileStages{}
	model := spec.ToChiselTorch(dt)
	var built *circuit.Netlist
	var err error
	if cs.frontendS, cs.frontendMB, err = stage(tr, "frontend.build", func() error {
		g := chiseltorch.NewGraph(model.Name, dt)
		x := g.InputTensor("x", 1, spec.Image, spec.Image)
		y, err := model.Net.Forward(g, x)
		if err != nil {
			return err
		}
		g.Output("y", y)
		built, err = g.M.Build()
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	var opt *circuit.Netlist
	if cs.synthS, cs.synthMB, err = stage(tr, "synth.optimize", func() error {
		res, err := synth.Optimize(built)
		if err == nil {
			opt = res.Netlist
		}
		return err
	}); err != nil {
		return nil, err
	}
	return cs, cs.finish(tr, opt)
}

// finish runs core.Compile's two steps — synth.Optimize and asm.Assemble —
// adding their time to the stage totals.
func (cs *compileStages) finish(tr *tracer, nl *circuit.Netlist) error {
	var opt *circuit.Netlist
	secs, mb, err := stage(tr, "synth.optimize", func() error {
		res, err := synth.Optimize(nl)
		if err == nil {
			opt = res.Netlist
		}
		return err
	})
	if err != nil {
		return err
	}
	cs.synthS += secs
	cs.synthMB += mb
	cs.netlist = opt
	cs.asmS, _, err = stage(tr, "asm.assemble", func() error {
		_, err := asm.Assemble(opt)
		return err
	})
	return err
}

// vipProgram is a served VIP-Bench kernel checked against its Ref.
// It is compiled the way `pytfhe compile -bench` does: b.Build, then
// core.Compile.
func vipProgram(b vipbench.Benchmark) (*program, error) {
	nl, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", b.Name, err)
	}
	prog, err := core.Compile(nl)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", b.Name, err)
	}
	p := &program{name: b.Name, weight: fixedWeights[b.Name], prog: prog,
		stages: func(tr *tracer) (*compileStages, error) { return splitVIP(tr, b) }}
	p.request = func(rng *rand.Rand) ([]bool, func([]bool) error) {
		vals := make([]uint64, len(b.InputBits))
		for i, w := range b.InputBits {
			vals[i] = rng.Uint64() & (1<<uint(w) - 1)
		}
		bits, err := b.EncodeInputs(vals)
		if err != nil {
			panic(err) // the widths come from b itself
		}
		want := b.Ref(vals)
		return bits, func(out []bool) error {
			got, err := b.DecodeOutputs(out)
			if err != nil {
				return err
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("%s%v: got %v, want %v", b.Name, vals, got, want)
				}
			}
			return nil
		}
	}
	return p, nil
}

// randomImage draws pixel values on the data type's grid in [0, 1).
func randomImage(rng *rand.Rand, n, fracBits int) []float64 {
	img := make([]float64, n)
	for i := range img {
		img[i] = float64(rng.Intn(1<<fracBits)) / float64(int(1)<<fracBits)
	}
	return img
}

// modelProgram is a ChiselTorch model checked against Infer, compiled the
// way `pytfhe compile -mnist` does: vipbench.CompileMNIST, then
// core.Compile.
func modelProgram(name string, spec models.MNISTSpec, dt chiseltorch.Fixed) (*program, error) {
	w, err := vipbench.CompileMNIST(spec, dt)
	if err != nil {
		return nil, err
	}
	prog, err := core.Compile(w.Netlist)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	return &program{name: name, weight: fixedWeights[name], prog: prog,
		stages:  func(tr *tracer) (*compileStages, error) { return splitModel(tr, spec, dt) },
		request: inferRequests(name, w.Compiled, dt.Frac)}, nil
}

// inferRequests draws random images on the model's input grid and checks
// outputs against ChiselTorch's Infer.
func inferRequests(name string, c *chiseltorch.Compiled, fracBits int) func(*rand.Rand) ([]bool, func([]bool) error) {
	pixels := 1
	for _, d := range c.InputShape {
		pixels *= d
	}
	outDT := c.OutDType // the checks keep only this, not the netlist
	return func(rng *rand.Rand) ([]bool, func([]bool) error) {
		img := randomImage(rng, pixels, fracBits)
		bits, err := c.EncodeInput(img)
		if err != nil {
			panic(err) // the image size comes from the model itself
		}
		want, err := c.Infer(img)
		return bits, func(out []bool) error {
			if err != nil {
				return fmt.Errorf("%s reference: %w", name, err)
			}
			got := chiseltorch.DecodeTensor(outDT, out)
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("%s output %d: got %v, want %v", name, i, got[i], want[i])
				}
			}
			return nil
		}
	}
}
