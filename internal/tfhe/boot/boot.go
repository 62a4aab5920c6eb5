// Package boot implements TFHE gate bootstrapping: generation of the
// bootstrapping and key-switching keys (the "cloud key"), blind rotation of
// a test vector, sample extraction, and the programmable bootstrap used by
// every homomorphic gate.
//
// The package also exposes a Profile so callers can attribute time to blind
// rotation versus key switching — the breakdown the paper reports in Fig. 7.
package boot

import (
	"fmt"
	"time"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// SecretKey holds every secret component: the scalar LWE key gates operate
// under, the ring key, and the extracted key that bridges them.
type SecretKey struct {
	Params    *params.GateParams
	LWE       *lwe.Key  // n-dimensional gate key
	Ring      *tlwe.Key // ring key (degree N, k masks)
	Extracted *lwe.Key  // N*k-dimensional key extracted from Ring
}

// CloudKey is the public evaluation key material: the bootstrapping key
// (one TGSW encryption of each LWE key bit, held in the half-complex
// domain the blind-rotation engine consumes) and the key-switching key
// from the extracted key back to the gate key. It is immutable after
// generation or decoding and shared by every evaluator; on the wire it
// travels in the fixed-width coefficient form of MarshalBinary.
type CloudKey struct {
	Params *params.GateParams
	BK     []*tgsw.HalfSample
	KS     *lwe.SwitchKey
}

// checkParams validates p for this package: the generic consistency
// checks plus the half-complex transform's minimum ring degree.
func checkParams(p *params.GateParams) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.PolyDegree < 4 {
		return fmt.Errorf("polynomial degree %d below the half-complex minimum of 4", p.PolyDegree)
	}
	return nil
}

// GenerateKeys produces a fresh secret key and the matching cloud key.
func GenerateKeys(p *params.GateParams, rng *trand.Source) (*SecretKey, *CloudKey, error) {
	if err := checkParams(p); err != nil {
		return nil, nil, fmt.Errorf("boot: invalid parameters: %w", err)
	}
	gp := tgsw.Params{Levels: p.DecompLevels, BaseLog: p.DecompBaseLog}
	sk := &SecretKey{
		Params: p,
		LWE:    lwe.NewKey(p.LWEDimension, p.LWEStdev, rng),
		Ring:   tlwe.NewKey(p.PolyDegree, p.RingCount, p.TLWEStdev, rng),
	}
	sk.Extracted = sk.Ring.ExtractLWEKey()

	ck := &CloudKey{Params: p}
	proc := torus.NewProcessor(p.PolyDegree)
	ringKey := &tgsw.Key{TLWE: sk.Ring, Params: gp}
	ck.BK = make([]*tgsw.HalfSample, p.LWEDimension)
	raw := tgsw.NewSample(p.PolyDegree, p.RingCount, gp)
	for i := 0; i < p.LWEDimension; i++ {
		tgsw.Encrypt(raw, sk.LWE.Bits[i], p.TLWEStdev, ringKey, rng)
		ck.BK[i] = raw.Half(proc)
	}
	ck.KS = lwe.NewSwitchKey(sk.Extracted, sk.LWE, p.KSLevels, p.KSBaseLog, p.LWEStdev, rng)
	return sk, ck, nil
}

// Profile accumulates wall-clock time per bootstrapping phase. Zero value is
// ready to use. It is not safe for concurrent use; each Evaluator owns one.
type Profile struct {
	BlindRotate time.Duration
	Extract     time.Duration
	KeySwitch   time.Duration
	Gates       int64

	// Batch amortization counters: how many batched dispatches ran and
	// how many gates they covered (an Evaluator call is a batch of one).
	// BatchedGates/Batches is the average batch fill the kernel saw.
	Batches      int64
	BatchedGates int64
}

// Total returns the profiled time across all phases.
func (p *Profile) Total() time.Duration {
	return p.BlindRotate + p.Extract + p.KeySwitch
}

// AvgBatchFill returns the average number of gates per batched dispatch, or
// 0 when no batches ran.
func (p *Profile) AvgBatchFill() float64 {
	if p.Batches == 0 {
		return 0
	}
	return float64(p.BatchedGates) / float64(p.Batches)
}

// Add merges other into p.
func (p *Profile) Add(other *Profile) {
	p.BlindRotate += other.BlindRotate
	p.Extract += other.Extract
	p.KeySwitch += other.KeySwitch
	p.Gates += other.Gates
	p.Batches += other.Batches
	p.BatchedGates += other.BatchedGates
}

// Evaluator performs single-gate bootstrapping: each call is the
// batch-of-one case of a BatchEvaluator, so its outputs are bit-exact with
// BootstrapBatch member for member. It is not safe for concurrent use;
// create one Evaluator per worker goroutine (they can share the same
// CloudKey, which is immutable after generation).
type Evaluator struct {
	CK      *CloudKey
	Prof    Profile
	Profile bool // when true, phases are timed into Prof

	b        *BatchEvaluator
	dst, src []*lwe.Sample // the batch of one
	mu       []torus.Torus32
}

// NewEvaluator returns an evaluator bound to ck.
func NewEvaluator(ck *CloudKey) *Evaluator {
	return &Evaluator{
		CK:  ck,
		b:   NewBatchEvaluator(ck, 1),
		dst: make([]*lwe.Sample, 1),
		src: make([]*lwe.Sample, 1),
		mu:  make([]torus.Torus32, 1),
	}
}

// one loads the batch of one and hands e's profile to the batch
// evaluator; done takes it back.
func (e *Evaluator) one(dst *lwe.Sample, mu torus.Torus32, src *lwe.Sample) *BatchEvaluator {
	e.dst[0], e.mu[0], e.src[0] = dst, mu, src
	e.b.Profile, e.b.Prof = e.Profile, e.Prof
	return e.b
}

func (e *Evaluator) done(err error) error {
	e.Prof = e.b.Prof
	return err
}

// modSwitch2N rescales a torus element to Z_{2N}.
func modSwitch2N(phase torus.Torus32, twoN int) int {
	v := (uint64(phase)*uint64(twoN) + (1 << 31)) >> 32
	return int(v) & (twoN - 1)
}

// BootstrapWoKS performs the programmable bootstrap of src with a constant
// test vector mu, leaving the result under the extracted key (no key
// switch): dst decrypts to +mu when the phase of src lies in [0, 1/2) and
// to -mu otherwise. dst must have dimension N*k.
func (e *Evaluator) BootstrapWoKS(dst *lwe.Sample, mu torus.Torus32, src *lwe.Sample) error {
	return e.done(e.one(dst, mu, src).BootstrapBatchWoKS(e.dst, e.mu, e.src))
}

// Bootstrap performs the full gate bootstrap: blind rotation, extraction,
// and key switch back to the n-dimensional gate key.
func (e *Evaluator) Bootstrap(dst *lwe.Sample, mu torus.Torus32, src *lwe.Sample) error {
	return e.done(e.one(dst, mu, src).BootstrapBatch(e.dst, e.mu, e.src))
}
