package boot

import (
	"fmt"
	"time"

	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
)

// BatchEvaluator bootstraps B ciphertexts per call in a structure-of-arrays
// blind rotation: the key-index loop is outermost, so for every bootstrap-
// key index i the TGSW sample BK[i], the gadget geometry, and the FFT
// twiddle tables are loaded once and applied to all B accumulators before
// advancing to i+1 — a batch of one, which is what Evaluator runs,
// re-streams the entire key per gate instead. The rotations run on the
// half-complex kernel engine (tgsw.BatchScratch.CMuxRotateBatchHalf).
//
// Like Evaluator, a BatchEvaluator is not safe for concurrent use: create
// one per worker goroutine over a shared CloudKey.
type BatchEvaluator struct {
	CK      *CloudKey
	Prof    Profile
	Profile bool // when true, phases are timed into Prof

	bs       *tgsw.BatchScratch
	accs     []*tlwe.Sample
	testvect *torus.TorusPoly
	rotated  *torus.TorusPoly
	extr     *lwe.Sample
	bara     []int // member-major [b][n] mod-switched mask coefficients
	sel      []int
	selAccs  []*tlwe.Sample
}

// NewBatchEvaluator returns a batch evaluator bound to ck, pre-sized for
// batches of up to capacity ciphertexts (it grows on demand).
func NewBatchEvaluator(ck *CloudKey, capacity int) *BatchEvaluator {
	p := ck.Params
	gp := tgsw.Params{Levels: p.DecompLevels, BaseLog: p.DecompBaseLog}
	if capacity < 1 {
		capacity = 1
	}
	e := &BatchEvaluator{
		CK:       ck,
		bs:       tgsw.NewBatchScratch(p.PolyDegree, p.RingCount, gp),
		testvect: torus.NewTorusPoly(p.PolyDegree),
		rotated:  torus.NewTorusPoly(p.PolyDegree),
		extr:     lwe.NewSample(p.ExtractedLWEDimension()),
	}
	e.grow(capacity)
	return e
}

func (e *BatchEvaluator) grow(b int) {
	p := e.CK.Params
	for len(e.accs) < b {
		e.accs = append(e.accs, tlwe.NewSample(p.PolyDegree, p.RingCount))
	}
	if cap(e.bara) < b*p.LWEDimension {
		e.bara = make([]int, b*p.LWEDimension)
	}
	if cap(e.sel) < b {
		e.sel = make([]int, 0, b)
		e.selAccs = make([]*tlwe.Sample, 0, b)
	}
}

func (e *BatchEvaluator) checkLens(dst []*lwe.Sample, nmu int, src []*lwe.Sample) error {
	if len(dst) != len(src) || nmu != len(src) {
		return fmt.Errorf("boot: batch length mismatch: dst=%d mu=%d src=%d", len(dst), nmu, len(src))
	}
	n := e.CK.Params.LWEDimension
	for m, s := range src {
		if s.Dimension() != n {
			return fmt.Errorf("boot: batch member %d: input dimension %d, want %d", m, s.Dimension(), n)
		}
	}
	return nil
}

// blindRotateBatch runs the shared structure-of-arrays rotation over the
// already-initialized accumulators accs[0..b-1], using e.bara. Members
// whose mod-switched coefficient is zero at index i are skipped, exactly
// like the single path.
func (e *BatchEvaluator) blindRotateBatch(b int, src []*lwe.Sample) {
	p := e.CK.Params
	n := p.LWEDimension
	twoN := 2 * p.PolyDegree
	for m := 0; m < b; m++ {
		row := e.bara[m*n : (m+1)*n]
		for i, a := range src[m].A {
			row[i] = modSwitch2N(a, twoN)
		}
	}
	for i := 0; i < n; i++ {
		sel := e.sel[:0]
		selAccs := e.selAccs[:0]
		for m := 0; m < b; m++ {
			if a := e.bara[m*n+i]; a != 0 {
				sel = append(sel, a)
				selAccs = append(selAccs, e.accs[m])
			}
		}
		if len(sel) > 0 {
			e.bs.CMuxRotateBatchHalf(selAccs, e.CK.BK[i], sel)
		}
	}
}

// initConstAccs programs each accumulator with the constant test vector
// mu[m] rotated by member m's mod-switched body, exactly as the single path
// does.
func (e *BatchEvaluator) initConstAccs(b int, mu []torus.Torus32, src []*lwe.Sample) {
	twoN := 2 * e.CK.Params.PolyDegree
	for m := 0; m < b; m++ {
		for j := range e.testvect.Coefs {
			e.testvect.Coefs[j] = mu[m]
		}
		barb := modSwitch2N(src[m].B, twoN)
		if barb != 0 {
			e.rotated.MulByXai(twoN-barb, e.testvect)
		} else {
			e.rotated.Copy(e.testvect)
		}
		e.accs[m].NoiselessTrivial(e.rotated)
	}
}

// BootstrapBatchWoKS bootstraps the batch with constant test vectors mu[m],
// leaving each result under the extracted key (no key switch). Every
// dst[m] must have dimension N*k.
func (e *BatchEvaluator) BootstrapBatchWoKS(dst []*lwe.Sample, mu []torus.Torus32, src []*lwe.Sample) error {
	if err := e.checkLens(dst, len(mu), src); err != nil {
		return err
	}
	b := len(src)
	if b == 0 {
		return nil
	}
	e.grow(b)
	var start time.Time
	if e.Profile {
		start = time.Now()
	}
	e.initConstAccs(b, mu, src)
	e.blindRotateBatch(b, src)
	if e.Profile {
		e.Prof.BlindRotate += time.Since(start)
		start = time.Now()
	}
	for m := 0; m < b; m++ {
		tlwe.ExtractSample(dst[m], e.accs[m])
	}
	if e.Profile {
		e.Prof.Extract += time.Since(start)
		e.Prof.Batches++
		e.Prof.BatchedGates += int64(b)
	}
	return nil
}

// BootstrapBatch performs full gate bootstraps of the whole batch: blind
// rotation with constant test vectors mu[m], extraction, and key switch of
// every member back to the n-dimensional gate key. Each member's output is
// bit-exact with Evaluator.Bootstrap on the same input.
func (e *BatchEvaluator) BootstrapBatch(dst []*lwe.Sample, mu []torus.Torus32, src []*lwe.Sample) error {
	if err := e.checkLens(dst, len(mu), src); err != nil {
		return err
	}
	b := len(src)
	if b == 0 {
		return nil
	}
	e.grow(b)
	var start time.Time
	if e.Profile {
		start = time.Now()
	}
	e.initConstAccs(b, mu, src)
	e.blindRotateBatch(b, src)
	if e.Profile {
		e.Prof.BlindRotate += time.Since(start)
	}
	return e.extractAndSwitch(dst, b)
}

// extractAndSwitch extracts every accumulator and key-switches it to the
// gate key, with per-phase timing.
func (e *BatchEvaluator) extractAndSwitch(dst []*lwe.Sample, b int) error {
	var start time.Time
	for m := 0; m < b; m++ {
		if e.Profile {
			start = time.Now()
		}
		tlwe.ExtractSample(e.extr, e.accs[m])
		if e.Profile {
			now := time.Now()
			e.Prof.Extract += now.Sub(start)
			start = now
		}
		if err := e.CK.KS.Apply(dst[m], e.extr); err != nil {
			return err
		}
		if e.Profile {
			e.Prof.KeySwitch += time.Since(start)
		}
	}
	if e.Profile {
		e.Prof.Gates += int64(b)
		e.Prof.Batches++
		e.Prof.BatchedGates += int64(b)
	}
	return nil
}

// BootstrapMixedBatch runs one structure-of-arrays blind rotation over a
// batch mixing classic gate bootstraps and programmable (LUT) members:
// members with luts[m] == nil use the constant test vector mu[m] and no
// body offset (bit-exact with BootstrapBatch), members with luts[m] != nil
// are programmed from their own test-vector function with the half-slot
// offset of the msize message space (bit-exact with Evaluator.BootstrapLUT
// on the same input). The per-member accumulator initialization is the
// only divergence; the expensive key-streaming rotation is shared.
func (e *BatchEvaluator) BootstrapMixedBatch(dst []*lwe.Sample, mu []torus.Torus32, luts []func(m int) torus.Torus32, msize int, src []*lwe.Sample) error {
	if err := e.checkLens(dst, len(mu), src); err != nil {
		return err
	}
	if len(luts) != len(src) {
		return fmt.Errorf("boot: mixed batch length mismatch: luts=%d src=%d", len(luts), len(src))
	}
	b := len(src)
	if b == 0 {
		return nil
	}
	p := e.CK.Params
	twoN := 2 * p.PolyDegree
	if msize <= 0 || msize%2 != 0 {
		return fmt.Errorf("boot: LUT message space must be a positive even number, got %d", msize)
	}
	if msize > twoN {
		return fmt.Errorf("boot: LUT message space %d exceeds 2N = %d", msize, twoN)
	}
	e.grow(b)
	var start time.Time
	if e.Profile {
		start = time.Now()
	}
	n := p.PolyDegree
	halfSlot := torus.Torus32(uint32((uint64(1) << 32) / uint64(2*msize)))
	for m := 0; m < b; m++ {
		var barb int
		if luts[m] == nil {
			for j := range e.testvect.Coefs {
				e.testvect.Coefs[j] = mu[m]
			}
			barb = modSwitch2N(src[m].B, twoN)
		} else {
			for j := 0; j < n; j++ {
				mm := j * msize / twoN
				e.testvect.Coefs[j] = luts[m](mm % msize)
			}
			barb = modSwitch2N(src[m].B+halfSlot, twoN)
		}
		if barb != 0 {
			e.rotated.MulByXai(twoN-barb, e.testvect)
		} else {
			e.rotated.Copy(e.testvect)
		}
		e.accs[m].NoiselessTrivial(e.rotated)
	}
	e.blindRotateBatch(b, src)
	if e.Profile {
		e.Prof.BlindRotate += time.Since(start)
	}
	return e.extractAndSwitch(dst, b)
}

// BootstrapLUTBatch evaluates the programmable bootstrap dst[m] =
// Enc(lut(m_enc)) for every member of the batch, sharing one test-vector
// program across the batch (the LUT and message-space size are per-call,
// exactly one testvect fill instead of B). Semantics per member match
// Evaluator.BootstrapLUT, including the half-torus negacyclic convention.
func (e *BatchEvaluator) BootstrapLUTBatch(dst []*lwe.Sample, lut func(m int) torus.Torus32, msize int, src []*lwe.Sample) error {
	if err := e.checkLens(dst, len(src), src); err != nil {
		return err
	}
	b := len(src)
	if b == 0 {
		return nil
	}
	p := e.CK.Params
	twoN := 2 * p.PolyDegree
	if msize <= 0 || msize%2 != 0 {
		return fmt.Errorf("boot: LUT message space must be a positive even number, got %d", msize)
	}
	if msize > twoN {
		return fmt.Errorf("boot: LUT message space %d exceeds 2N = %d", msize, twoN)
	}
	e.grow(b)
	var start time.Time
	if e.Profile {
		start = time.Now()
	}
	// Program the test vector: the input phase is offset by half a slot so
	// message m occupies ring positions [m*2N/msize, (m+1)*2N/msize) — this
	// keeps m = 0 robust against negative noise — and coefficient j then
	// holds lut(floor(j*msize/2N)).
	n := p.PolyDegree
	for j := 0; j < n; j++ {
		m := j * msize / twoN
		e.testvect.Coefs[j] = lut(m % msize)
	}
	halfSlot := torus.Torus32(uint32((uint64(1) << 32) / uint64(2*msize)))
	for m := 0; m < b; m++ {
		barb := modSwitch2N(src[m].B+halfSlot, twoN)
		if barb != 0 {
			e.rotated.MulByXai(twoN-barb, e.testvect)
		} else {
			e.rotated.Copy(e.testvect)
		}
		e.accs[m].NoiselessTrivial(e.rotated)
	}
	e.blindRotateBatch(b, src)
	if e.Profile {
		e.Prof.BlindRotate += time.Since(start)
	}
	return e.extractAndSwitch(dst, b)
}
