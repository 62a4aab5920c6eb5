// Package tgsw implements TGSW ciphertexts — the gadget-decomposed
// ring-GSW samples of the TFHE scheme — together with the CMux rotation
// (an external product TGSW ⊡ TLWE) that blind rotation is built from.
//
// The hot path keeps TGSW samples in the half-complex domain (HalfSample):
// the bootstrapping key is folded once at key-generation or key-decode
// time, so each external product costs only the forward transforms of the
// decomposed accumulator, pointwise multiply-accumulates, and the inverse
// transforms.
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
