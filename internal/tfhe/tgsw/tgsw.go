// Package tgsw implements TGSW ciphertexts — the gadget-decomposed
// ring-GSW samples of the TFHE scheme — together with the external product
// TGSW ⊡ TLWE and the CMux operation that blind rotation is built from.
//
// The hot path keeps TGSW samples in the Fourier domain (FourierSample):
// the bootstrapping key is transformed once at key-generation time, so each
// external product costs only the forward transforms of the decomposed
// accumulator, pointwise multiply-accumulates, and the inverse transforms.
package tgsw

import (
	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// Params carries the gadget decomposition geometry.
type Params struct {
	Levels  int // l
	BaseLog int // Bgbit
}

// Base returns the decomposition base Bg.
func (p Params) Base() int32 { return int32(1) << p.BaseLog }

// Offset returns the decomposition offset added to every torus coefficient
// so that the digit extraction below yields balanced digits in
// [-Bg/2, Bg/2).
func (p Params) Offset() uint32 {
	var offset uint32
	halfBase := uint32(1) << (p.BaseLog - 1)
	for j := 1; j <= p.Levels; j++ {
		offset += halfBase << (32 - uint(j)*uint(p.BaseLog))
	}
	return offset
}

// Key wraps a TLWE key for TGSW encryption.
type Key struct {
	TLWE   *tlwe.Key
	Params Params
}

// NewKey samples a fresh TGSW key over a ring of degree n with k masks.
func NewKey(n, k int, stdev float64, p Params, rng *trand.Source) *Key {
	return &Key{TLWE: tlwe.NewKey(n, k, stdev, rng), Params: p}
}

// Sample is a TGSW ciphertext: (k+1)*l TLWE rows arranged in k+1 blocks of
// l levels. Block b, level j is an encryption of m * s_b / Bg^(j+1) (with
// s_k = -1 handled by the body block).
type Sample struct {
	Rows   []*tlwe.Sample // length (k+1)*l
	K      int
	Params Params
}

// NewSample returns a zero TGSW sample for ring degree n with k masks.
func NewSample(n, k int, p Params) *Sample {
	s := &Sample{K: k, Params: p, Rows: make([]*tlwe.Sample, (k+1)*p.Levels)}
	for i := range s.Rows {
		s.Rows[i] = tlwe.NewSample(n, k)
	}
	return s
}

// Encrypt encrypts the small integer message m (typically a key bit) into
// dst under key: every row is a fresh zero encryption, then m*H is added on
// the gadget diagonal.
func Encrypt(dst *Sample, m int32, alpha float64, key *Key, rng *trand.Source) {
	l := key.Params.Levels
	for _, row := range dst.Rows {
		tlwe.EncryptZero(row, alpha, key.TLWE, rng)
	}
	for bloc := 0; bloc <= dst.K; bloc++ {
		for j := 0; j < l; j++ {
			// h_j = 1 / Bg^(j+1) on the torus.
			h := uint32(1) << (32 - uint(j+1)*uint(key.Params.BaseLog))
			row := dst.Rows[bloc*l+j]
			row.A[bloc].Coefs[0] += uint32(m) * h
		}
	}
}

// DecomposeTLWE gadget-decomposes every polynomial of the TLWE sample src
// into l integer polynomials with balanced digits. dst must hold
// (k+1)*Levels integer polynomials; block c occupies dst[c*l .. c*l+l-1].
func DecomposeTLWE(dst []*torus.IntPoly, src *tlwe.Sample, p Params) {
	l := p.Levels
	for c, poly := range src.A {
		DecomposePoly(dst[c*l:(c+1)*l], poly, p)
	}
}

// DecomposePoly gadget-decomposes one torus polynomial into l balanced
// digit polynomials: sum_j dst[j]/Bg^(j+1) ≈ src with error below 1/Bg^l.
//
// The level loop is outermost and each digit polynomial is re-sliced to
// the source length, so the inner loop is one bounds-check-free pass per
// level (l*Bgbit <= 32 keeps every shift in [0, 32)).
func DecomposePoly(dst []*torus.IntPoly, src *torus.TorusPoly, p Params) {
	offset := p.Offset()
	mask := uint32(1)<<p.BaseLog - 1
	halfBase := int32(1) << (p.BaseLog - 1)
	coefs := src.Coefs
	for j := 0; j < p.Levels; j++ {
		shift := (32 - uint(j+1)*uint(p.BaseLog)) & 31
		out := dst[j].Coefs[:len(coefs)]
		for i, c := range coefs {
			out[i] = int32(((c+offset)>>shift)&mask) - halfBase
		}
	}
}

// FourierSample is a TGSW sample with every row polynomial held in the
// Fourier domain. It is the representation used for bootstrapping keys.
type FourierSample struct {
	// Rows[u][c] is the Fourier transform of polynomial c of TLWE row u.
	Rows   [][]*torus.FourierPoly
	K      int
	Params Params
}

// ToFourier transforms a coefficient-domain TGSW sample into the Fourier
// domain using proc.
func (s *Sample) ToFourier(proc *torus.Processor) *FourierSample {
	f := &FourierSample{K: s.K, Params: s.Params, Rows: make([][]*torus.FourierPoly, len(s.Rows))}
	for u, row := range s.Rows {
		f.Rows[u] = make([]*torus.FourierPoly, s.K+1)
		for c, poly := range row.A {
			fp := torus.NewFourierPoly(poly.N())
			proc.TorusToFourier(fp, poly)
			f.Rows[u][c] = fp
		}
	}
	return f
}

// Scratch holds the per-worker temporaries for external products so the hot
// loop performs no allocation. A Scratch (and its Processor) must not be
// shared between goroutines.
type Scratch struct {
	Proc   *torus.Processor
	decomp []*torus.IntPoly
	fdec   *torus.FourierPoly
	fdec2  *torus.FourierPoly
	facc   []*torus.FourierPoly
	diff   *tlwe.Sample
}

// NewScratch allocates scratch space for ring degree n, k masks and gadget
// parameters p.
func NewScratch(n, k int, p Params) *Scratch {
	s := &Scratch{
		Proc:   torus.NewProcessor(n),
		decomp: make([]*torus.IntPoly, (k+1)*p.Levels),
		fdec:   torus.NewFourierPoly(n),
		fdec2:  torus.NewFourierPoly(n),
		facc:   make([]*torus.FourierPoly, k+1),
		diff:   tlwe.NewSample(n, k),
	}
	for i := range s.decomp {
		s.decomp[i] = torus.NewIntPoly(n)
	}
	for i := range s.facc {
		s.facc[i] = torus.NewFourierPoly(n)
	}
	return s
}

// ExternalProductAdd computes acc += g ⊡ src, where g is a Fourier-domain
// TGSW sample and src a coefficient-domain TLWE sample. acc and src may not
// alias. Forward and inverse transforms run pair-packed (two real
// polynomials per complex FFT), halving the FFT count of the hot loop.
func (sc *Scratch) ExternalProductAdd(acc *tlwe.Sample, g *FourierSample, src *tlwe.Sample) {
	DecomposeTLWE(sc.decomp, src, g.Params)
	for c := range sc.facc {
		sc.facc[c].Clear()
	}
	u := 0
	for ; u+1 < len(sc.decomp); u += 2 {
		sc.Proc.IntPairToFourier(sc.fdec, sc.fdec2, sc.decomp[u], sc.decomp[u+1])
		rowA, rowB := g.Rows[u], g.Rows[u+1]
		for c := range sc.facc {
			sc.facc[c].MulAccTo(sc.fdec, rowA[c])
			sc.facc[c].MulAccTo(sc.fdec2, rowB[c])
		}
	}
	if u < len(sc.decomp) { // odd (k+1)*l: one leftover single transform
		sc.Proc.IntToFourier(sc.fdec, sc.decomp[u])
		row := g.Rows[u]
		for c := range sc.facc {
			sc.facc[c].MulAccTo(sc.fdec, row[c])
		}
	}
	c := 0
	for ; c+1 < len(sc.facc); c += 2 {
		sc.Proc.AddFourierPairToTorus(acc.A[c], acc.A[c+1], sc.facc[c], sc.facc[c+1])
	}
	if c < len(sc.facc) {
		sc.Proc.AddFourierToTorus(acc.A[c], sc.facc[c])
	}
	acc.Variance += src.Variance // coarse tracking; exact analysis in docs
}

// CMuxRotateInPlace performs the blind-rotation step
// acc += g ⊡ ((X^a - 1) · acc), which equals CMux(g, X^a·acc, acc) when g
// encrypts a bit: the accumulator is multiplied by X^a iff the encrypted
// bit is one.
func (sc *Scratch) CMuxRotateInPlace(acc *tlwe.Sample, g *FourierSample, a int) {
	sc.diff.MulByXaiMinusOne(a, acc)
	sc.ExternalProductAdd(acc, g, sc.diff)
}

// CMux computes dst = c0 + g ⊡ (c1 - c0): dst decrypts to c1's message when
// g encrypts 1 and to c0's when g encrypts 0. dst may alias c0 but not c1.
func (sc *Scratch) CMux(dst *tlwe.Sample, g *FourierSample, c1, c0 *tlwe.Sample) {
	sc.diff.Copy(c1)
	sc.diff.SubFrom(c0)
	if dst != c0 {
		dst.Copy(c0)
	}
	sc.ExternalProductAdd(dst, g, sc.diff)
}
