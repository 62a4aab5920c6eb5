package torus

import (
	"math"
	"sync"
	"sync/atomic"
)

// FourierPoly is a polynomial evaluated at the N odd 2N-th roots of unity
// ψ^(1-2k) with ψ = e^{iπ/N}. Because X^N = -1 at every such point,
// pointwise multiplication of Fourier polynomials corresponds to negacyclic
// multiplication in the coefficient domain. The real and imaginary parts are
// kept in separate slices so the butterfly loops stay allocation- and
// interface-free. The bootstrap runs on the half-size representation of
// half.go; this full-size one serves ring encryption (tlwe) and the MulFFT
// reference multiplier.
type FourierPoly struct {
	Re, Im []float64
}

// NewFourierPoly returns a zero Fourier polynomial for ring degree n.
func NewFourierPoly(n int) *FourierPoly {
	return &FourierPoly{Re: make([]float64, n), Im: make([]float64, n)}
}

// MulAccTo accumulates f += a*b pointwise.
func (f *FourierPoly) MulAccTo(a, b *FourierPoly) {
	fr, fi := f.Re, f.Im
	ar, ai := a.Re, a.Im
	br, bi := b.Re, b.Im
	for k := range fr {
		fr[k] += ar[k]*br[k] - ai[k]*bi[k]
		fi[k] += ar[k]*bi[k] + ai[k]*br[k]
	}
}

// Processor owns the precomputed twiddle factors for one ring degree N and
// the scratch buffers for transforms. A Processor is not safe for concurrent
// use; obtain one per goroutine with NewProcessor (tables are shared and
// immutable, scratch is per-Processor).
type Processor struct {
	n      int
	tab    *fftTables
	half   *halfTables // lazily built (see half.go)
	scReRe []float64   // scratch real part
	scIm   []float64   // scratch imaginary part
}

// fftTables holds the immutable per-N precomputed data shared by all
// Processors of that size.
type fftTables struct {
	n       int
	rev     []int     // bit-reversal permutation
	wRe     []float64 // stage twiddles, forward direction, length n/2
	wIm     []float64
	twistRe []float64 // e^{iπj/N}
	twistIm []float64
}

// The twiddle-table cache is an immutable map snapshot behind an atomic
// pointer: lookups after the first construction of a size are a single
// atomic load with no locking (NewProcessor is called once per worker per
// run, often from many goroutines at once). Inserting a new size copies the
// snapshot under tableMu and publishes the extended map.
var (
	tableMu    sync.Mutex
	tableCache atomic.Pointer[map[int]*fftTables]
)

func tablesFor(n int) *fftTables {
	if m := tableCache.Load(); m != nil {
		if t, ok := (*m)[n]; ok {
			return t
		}
	}
	tableMu.Lock()
	defer tableMu.Unlock()
	old := tableCache.Load()
	if old != nil {
		if t, ok := (*old)[n]; ok {
			return t
		}
	}
	t := newTables(n)
	next := make(map[int]*fftTables, 8)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[n] = t
	tableCache.Store(&next)
	return t
}

func newTables(n int) *fftTables {
	if n <= 0 || n&(n-1) != 0 {
		panic("torus: FFT size must be a positive power of two")
	}
	t := &fftTables{n: n}
	t.rev = make([]int, n)
	logn := 0
	for 1<<logn < n {
		logn++
	}
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < logn; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (logn - 1 - b)
			}
		}
		t.rev[i] = r
	}
	t.wRe = make([]float64, n/2)
	t.wIm = make([]float64, n/2)
	for j := 0; j < n/2; j++ {
		// Forward transform uses e^{-2πij/n}.
		ang := -2 * math.Pi * float64(j) / float64(n)
		t.wRe[j] = math.Cos(ang)
		t.wIm[j] = math.Sin(ang)
	}
	t.twistRe = make([]float64, n)
	t.twistIm = make([]float64, n)
	for j := 0; j < n; j++ {
		ang := math.Pi * float64(j) / float64(n)
		t.twistRe[j] = math.Cos(ang)
		t.twistIm[j] = math.Sin(ang)
	}
	return t
}

// NewProcessor returns a transform processor for ring degree n (a power of
// two). Twiddle tables are computed once per size and shared.
func NewProcessor(n int) *Processor {
	return &Processor{
		n:      n,
		tab:    tablesFor(n),
		scReRe: make([]float64, n),
		scIm:   make([]float64, n),
	}
}

// N returns the ring degree the processor was built for.
func (p *Processor) N() int { return p.n }

// fft performs an in-place forward FFT (ω = e^{-2πi/n}) on re/im.
func (t *fftTables) fft(re, im []float64) {
	n := t.n
	for i, r := range t.rev {
		if i < r {
			re[i], re[r] = re[r], re[i]
			im[i], im[r] = im[r], im[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				wr := t.wRe[tw]
				wi := t.wIm[tw]
				tw += step
				j := k + half
				xr := re[j]*wr - im[j]*wi
				xi := re[j]*wi + im[j]*wr
				re[j] = re[k] - xr
				im[j] = im[k] - xi
				re[k] += xr
				im[k] += xi
			}
		}
	}
}

// ifft performs an in-place inverse FFT without the 1/n scaling (the caller
// folds the scaling into the untwist step).
func (t *fftTables) ifft(re, im []float64) {
	// Inverse transform = conjugate, forward, conjugate.
	for i := range im {
		im[i] = -im[i]
	}
	t.fft(re, im)
	for i := range im {
		im[i] = -im[i]
	}
}

// IntToFourier transforms an integer polynomial into the Fourier domain.
func (p *Processor) IntToFourier(dst *FourierPoly, src *IntPoly) {
	tw := p.tab
	for j, c := range src.Coefs {
		v := float64(c)
		dst.Re[j] = v * tw.twistRe[j]
		dst.Im[j] = v * tw.twistIm[j]
	}
	tw.fft(dst.Re, dst.Im)
}

// TorusToFourier transforms a torus polynomial into the Fourier domain.
// Torus coefficients are interpreted as signed integers, which represents
// the same residue class modulo 2^32.
func (p *Processor) TorusToFourier(dst *FourierPoly, src *TorusPoly) {
	tw := p.tab
	for j, c := range src.Coefs {
		v := float64(int32(c))
		dst.Re[j] = v * tw.twistRe[j]
		dst.Im[j] = v * tw.twistIm[j]
	}
	tw.fft(dst.Re, dst.Im)
}

// FourierToTorus performs the inverse transform, rounding each coefficient
// to the nearest torus element. dst is overwritten.
func (p *Processor) FourierToTorus(dst *TorusPoly, src *FourierPoly) {
	tw := p.tab
	re, im := p.scReRe, p.scIm
	copy(re, src.Re)
	copy(im, src.Im)
	tw.ifft(re, im)
	inv := 1 / float64(p.n)
	for j := range dst.Coefs {
		// Untwist: multiply by conj(twist_j), keep the real part.
		r := (re[j]*tw.twistRe[j] + im[j]*tw.twistIm[j]) * inv
		dst.Coefs[j] = roundTorus(r)
	}
}

// AddFourierToTorus performs the inverse transform and adds the result to
// dst coefficient-wise.
func (p *Processor) AddFourierToTorus(dst *TorusPoly, src *FourierPoly) {
	tw := p.tab
	re, im := p.scReRe, p.scIm
	copy(re, src.Re)
	copy(im, src.Im)
	tw.ifft(re, im)
	inv := 1 / float64(p.n)
	for j := range dst.Coefs {
		r := (re[j]*tw.twistRe[j] + im[j]*tw.twistIm[j]) * inv
		dst.Coefs[j] += roundTorus(r)
	}
}

// roundTorus rounds a real value to the nearest 32-bit torus element,
// wrapping modulo 2^32. The magnitudes produced by TFHE kernels stay well
// below 2^52 so the float64 mantissa is never exhausted.
func roundTorus(r float64) Torus32 {
	return Torus32(int64(math.Round(r)))
}

// MulFFT computes result = a*b in T[X]/(X^N+1) using the FFT path. It is a
// convenience wrapper used by tests and small callers; the bootstrapping
// inner loops drive the Processor primitives directly to amortize
// transforms.
func (p *Processor) MulFFT(result *TorusPoly, a *IntPoly, b *TorusPoly) {
	fa := NewFourierPoly(p.n)
	fb := NewFourierPoly(p.n)
	fc := NewFourierPoly(p.n)
	p.IntToFourier(fa, a)
	p.TorusToFourier(fb, b)
	fc.MulAccTo(fa, fb)
	p.FourierToTorus(result, fc)
}
