package tgsw

import (
	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
)

// HalfSample is a TGSW sample with every row polynomial in the half-complex
// domain (N/2 informative points instead of N conjugate-redundant ones; see
// torus/half.go). It is the bootstrapping-key representation: relative to
// a full-size spectrum it halves both the memory the key streams through
// the cache and the flops of every pointwise multiply-accumulate.
type HalfSample struct {
	Rows   [][]*torus.HalfPoly
	K      int
	Params Params
}

// Half folds a coefficient-domain TGSW sample into the half-complex
// domain using proc.
func (s *Sample) Half(proc *torus.Processor) *HalfSample {
	h := &HalfSample{K: s.K, Params: s.Params, Rows: make([][]*torus.HalfPoly, len(s.Rows))}
	for u, row := range s.Rows {
		h.Rows[u] = make([]*torus.HalfPoly, len(row.A))
		for c, poly := range row.A {
			hp := torus.NewHalfPoly(poly.N() / 2)
			proc.HalfFoldTorus(hp, poly)
			h.Rows[u][c] = hp
		}
	}
	return h
}

// BatchScratch holds the temporaries of the blind-rotation step: the
// rotate-and-diff sample, its gadget digits, and one member's worth of
// half-complex spectra and accumulators, reused across a batch. A single
// gate is the batch of one.
//
// A BatchScratch (and its Processor) must not be shared between
// goroutines.
type BatchScratch struct {
	Proc *torus.Processor

	decomp []*torus.IntPoly // (k+1)*levels digit polys
	diff   *tlwe.Sample
	hspec1 *torus.HalfPoly
	hspec2 *torus.HalfPoly
	hfacc  []*torus.HalfPoly // k+1 accumulators
}

// NewBatchScratch allocates rotation scratch for ring degree n, k masks
// and gadget parameters p. The scratch serves batches of any size.
func NewBatchScratch(n, k int, p Params) *BatchScratch {
	bs := &BatchScratch{
		Proc:   torus.NewProcessor(n),
		decomp: make([]*torus.IntPoly, (k+1)*p.Levels),
		diff:   tlwe.NewSample(n, k),
		hspec1: torus.NewHalfPoly(n / 2),
		hspec2: torus.NewHalfPoly(n / 2),
		hfacc:  make([]*torus.HalfPoly, k+1),
	}
	for i := range bs.decomp {
		bs.decomp[i] = torus.NewIntPoly(n)
	}
	for i := range bs.hfacc {
		bs.hfacc[i] = torus.NewHalfPoly(n / 2)
	}
	return bs
}

// CMuxRotateBatchHalf performs the blind-rotation step
// accs[m] += g ⊡ ((X^as[m] - 1) · accs[m]) for every batch member m
// against the single half-domain TGSW sample g: the accumulator is
// multiplied by X^as[m] iff g encrypts one. Members are processed one by
// one so the caller's key-index-outer loop keeps g's rows hot in cache
// across the whole batch. Each digit polynomial gets its own half-size
// transform (the representation already carries two real coefficients per
// complex point), and products accumulate through the fused MulAccPairTo
// pass. The results are exact: the products round back to the integer
// convolution (magnitudes stay far below 2^52), so a member's output does
// not depend on the batch it rides in.
//
// All as[m] should be nonzero (zero rotations are identity CMuxes; callers
// skip them before batching). len(as) must equal len(accs).
func (bs *BatchScratch) CMuxRotateBatchHalf(accs []*tlwe.Sample, g *HalfSample, as []int) {
	b := len(accs)
	if b == 0 {
		return
	}
	if len(as) != b {
		panic("tgsw: CMuxRotateBatchHalf rotation count mismatch")
	}
	d := (g.K + 1) * g.Params.Levels
	kk := g.K + 1
	for m, acc := range accs {
		bs.diff.MulByXaiMinusOne(as[m], acc)
		srcVar := bs.diff.Variance
		DecomposeTLWE(bs.decomp[:d], bs.diff, g.Params)
		for c := 0; c < kk; c++ {
			bs.hfacc[c].Clear()
		}
		u := 0
		for ; u+1 < d; u += 2 {
			bs.Proc.HalfFoldInt(bs.hspec1, bs.decomp[u])
			bs.Proc.HalfFoldInt(bs.hspec2, bs.decomp[u+1])
			rowA, rowB := g.Rows[u], g.Rows[u+1]
			for c := 0; c < kk; c++ {
				bs.hfacc[c].MulAccPairTo(bs.hspec1, rowA[c], bs.hspec2, rowB[c])
			}
		}
		if u < d {
			bs.Proc.HalfFoldInt(bs.hspec1, bs.decomp[u])
			row := g.Rows[u]
			for c := 0; c < kk; c++ {
				bs.hfacc[c].MulAccTo(bs.hspec1, row[c])
			}
		}
		for c := 0; c < kk; c++ {
			bs.Proc.AddHalfToTorus(acc.A[c], bs.hfacc[c])
		}
		acc.Variance += srcVar
	}
}
