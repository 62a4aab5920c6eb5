// Package gate provides the bootstrapped-gate API of PyTFHE: encryption and
// decryption of single bits, and homomorphic evaluation of every gate kind
// in the logic alphabet. Ten two-input gates (AND, NAND, OR, NOR, XOR,
// XNOR, ANDNY, ANDYN, ORNY, ORYN) cost one bootstrap each; NOT, COPY and
// the constants are linear and essentially free; MUX costs two bootstraps
// and one key switch, exactly as in the reference TFHE library.
package gate

import (
	"fmt"

	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// Ciphertext is an encrypted bit: an LWE sample whose phase is +1/8 for
// true and -1/8 for false.
type Ciphertext = lwe.Sample

// mu18 is the torus constant 1/8, the canonical gate message amplitude.
// (A variable rather than a constant so that unsigned negation is legal.)
var mu18 = torus.Torus32(1) << 29

// NewCiphertext allocates a ciphertext for parameter set p.
func NewCiphertext(p *params.GateParams) *Ciphertext {
	return lwe.NewSample(p.LWEDimension)
}

// Encrypt encrypts one bit under the secret key.
func Encrypt(dst *Ciphertext, bit bool, sk *boot.SecretKey, rng *trand.Source) {
	mu := mu18
	if !bit {
		mu = -mu18
	}
	lwe.Encrypt(dst, mu, sk.Params.LWEStdev, sk.LWE, rng)
}

// Decrypt recovers the bit encrypted in src.
func Decrypt(src *Ciphertext, sk *boot.SecretKey) bool {
	return int32(lwe.Phase(src, sk.LWE)) > 0
}

// Trivial sets dst to the noiseless public constant bit.
func Trivial(dst *Ciphertext, bit bool) {
	mu := mu18
	if !bit {
		mu = -mu18
	}
	dst.NoiselessTrivial(mu)
}

// Engine evaluates homomorphic gates. It owns per-worker scratch and is not
// safe for concurrent use; construct one Engine per goroutine over a shared
// CloudKey.
type Engine struct {
	Eval *boot.Evaluator

	p    *params.GateParams
	tmp  *lwe.Sample // gate linear combination, dimension n
	u1   *lwe.Sample // MUX intermediate, extracted dimension
	u2   *lwe.Sample
	musm *lwe.Sample // MUX sum before final key switch

	// Batched path (BinaryBatch/OpBatch), allocated on first use.
	batch *boot.BatchEvaluator
	btmp  []*lwe.Sample               // per-member linear combinations
	bmu   []torus.Torus32             // per-member bootstrap targets (always ±1/8)
	bluts []func(m int) torus.Torus32 // per-member LUT programs (nil = classic gate)
}

// NewEngine returns a gate engine bound to ck.
func NewEngine(ck *boot.CloudKey) *Engine {
	ext := ck.Params.ExtractedLWEDimension()
	return &Engine{
		Eval: boot.NewEvaluator(ck),
		p:    ck.Params,
		tmp:  lwe.NewSample(ck.Params.LWEDimension),
		u1:   lwe.NewSample(ext),
		u2:   lwe.NewSample(ext),
		musm: lwe.NewSample(ext),
	}
}

// Params returns the engine's parameter set.
func (e *Engine) Params() *params.GateParams { return e.p }

// BootstrapCount returns the number of bootstraps performed so far, on the
// single-gate and batched paths combined (only tracked when profiling is
// enabled on the evaluator).
func (e *Engine) BootstrapCount() int64 {
	n := e.Eval.Prof.Gates
	if e.batch != nil {
		n += e.batch.Prof.Gates
	}
	return n
}

// gatePlan describes the linear combination feeding the bootstrap for one
// two-input gate: tmp = bias + ca*a + cb*b, followed by bootstrap(1/8).
type gatePlan struct {
	bias   torus.Torus32
	ca, cb int32
}

// plans indexes gate plans by logic.Kind. Kinds that do not bootstrap have
// a zero plan and are handled separately.
var plans = func() [logic.NumKinds]gatePlan {
	var p [logic.NumKinds]gatePlan
	q := mu18 // 1/8
	p[logic.NAND] = gatePlan{bias: q, ca: -1, cb: -1}
	p[logic.AND] = gatePlan{bias: -q, ca: 1, cb: 1}
	p[logic.OR] = gatePlan{bias: q, ca: 1, cb: 1}
	p[logic.NOR] = gatePlan{bias: -q, ca: -1, cb: -1}
	p[logic.XOR] = gatePlan{bias: 2 * q, ca: 2, cb: 2}
	p[logic.XNOR] = gatePlan{bias: -(2 * q), ca: -2, cb: -2}
	p[logic.ANDNY] = gatePlan{bias: -q, ca: -1, cb: 1}
	p[logic.ANDYN] = gatePlan{bias: -q, ca: 1, cb: -1}
	p[logic.ORNY] = gatePlan{bias: q, ca: -1, cb: 1}
	p[logic.ORYN] = gatePlan{bias: q, ca: 1, cb: -1}
	return p
}()

// PlanCoefficients exposes the linear-combination coefficients of a
// bootstrapped gate's plan (tmp = bias + ca*a + cb*b): the inputs noise
// analysis needs to bound the pre-bootstrap variance with the exact
// multipliers the engine uses, rather than re-deriving its own table that
// could drift. ok is false for the free kinds (constants, COPY, NOT) and
// out-of-range values, which never feed a bootstrap.
func PlanCoefficients(kind logic.Kind) (ca, cb int32, ok bool) {
	if kind >= logic.NumKinds || !kind.NeedsBootstrap() {
		return 0, 0, false
	}
	pl := plans[kind]
	return pl.ca, pl.cb, true
}

// Binary evaluates dst = kind(a, b) homomorphically. dst may alias a or b.
func (e *Engine) Binary(kind logic.Kind, dst, a, b *Ciphertext) error {
	switch kind {
	case logic.False:
		Trivial(dst, false)
		return nil
	case logic.True:
		Trivial(dst, true)
		return nil
	case logic.COPY:
		dst.Copy(a)
		return nil
	case logic.COPYB:
		dst.Copy(b)
		return nil
	case logic.NOT:
		if dst != a {
			dst.Copy(a)
		}
		dst.Negate()
		return nil
	case logic.NOTB:
		if dst != b {
			dst.Copy(b)
		}
		dst.Negate()
		return nil
	}
	pl := plans[kind]
	e.tmp.NoiselessTrivial(pl.bias)
	e.tmp.AddMulTo(pl.ca, a)
	e.tmp.AddMulTo(pl.cb, b)
	return e.Eval.Bootstrap(dst, mu18, e.tmp)
}

// Not computes dst = ¬a without bootstrapping.
func (e *Engine) Not(dst, a *Ciphertext) { _ = e.Binary(logic.NOT, dst, a, a) }

// Copy computes dst = a.
func (e *Engine) Copy(dst, a *Ciphertext) { _ = e.Binary(logic.COPY, dst, a, a) }

// Constant sets dst to the public bit v.
func (e *Engine) Constant(dst *Ciphertext, v bool) { Trivial(dst, v) }

// Mux computes dst = sel ? a : b using two bootstraps and one key switch,
// following the reference library: u1 = BS(sel AND a), u2 = BS(¬sel AND b),
// dst = KS(u1 + u2 + 1/8).
func (e *Engine) Mux(dst, sel, a, b *Ciphertext) error {
	// u1 ≈ ±1/8 encoding (sel ∧ a)
	e.tmp.NoiselessTrivial(-mu18)
	e.tmp.AddMulTo(1, sel)
	e.tmp.AddMulTo(1, a)
	if err := e.Eval.BootstrapWoKS(e.u1, mu18, e.tmp); err != nil {
		return fmt.Errorf("gate: mux bootstrap: %w", err)
	}

	// u2 ≈ ±1/8 encoding (¬sel ∧ b)
	e.tmp.NoiselessTrivial(-mu18)
	e.tmp.AddMulTo(-1, sel)
	e.tmp.AddMulTo(1, b)
	if err := e.Eval.BootstrapWoKS(e.u2, mu18, e.tmp); err != nil {
		return fmt.Errorf("gate: mux bootstrap: %w", err)
	}

	// dst = u1 + u2 + 1/8, key-switched to the gate key. Exactly one of
	// u1, u2 is +1/8, so the sum is +1/8 (true) or -1/8 (false).
	e.musm.NoiselessTrivial(mu18)
	e.musm.AddTo(e.u1)
	e.musm.AddTo(e.u2)
	if err := e.CK().KS.Apply(dst, e.musm); err != nil {
		return fmt.Errorf("gate: mux key switch: %w", err)
	}
	return nil
}

// CK returns the engine's cloud key.
func (e *Engine) CK() *boot.CloudKey { return e.Eval.CK }
