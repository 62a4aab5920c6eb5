package torus

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Oracle tests of the vector kernels (kernels_amd64.s) against the
// portable …Generic bodies they replace. Spectra may differ in the last
// bits (FMA rounds once where the portable code rounds twice), so they are
// compared within a tolerance relative to the spectrum's magnitude;
// anything rounded back to the torus must be bit-identical.

var kernelSizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048}

func requireAVX2(t testing.TB) {
	t.Helper()
	if !hasAVX2FMA {
		t.Skip("CPU lacks AVX2/FMA: only the portable kernels run")
	}
}

func randDigits(rng *rand.Rand, n int) *IntPoly {
	a := NewIntPoly(n)
	for i := range a.Coefs {
		a.Coefs[i] = int32(rng.Intn(128)) - 64
	}
	return a
}

func randTorus(rng *rand.Rand, n int) *TorusPoly {
	b := NewTorusPoly(n)
	for i := range b.Coefs {
		b.Coefs[i] = rng.Uint32()
	}
	return b
}

func randSpectrum(rng *rand.Rand, m int) *HalfPoly {
	f := NewHalfPoly(m)
	for k := 0; k < m; k++ {
		f.Re[k] = rng.NormFloat64() * (1 << 40)
		f.Im[k] = rng.NormFloat64() * (1 << 40)
	}
	return f
}

func cloneHalf(f *HalfPoly) *HalfPoly {
	g := NewHalfPoly(f.M())
	copy(g.Re, f.Re)
	copy(g.Im, f.Im)
	return g
}

// misaligned copies f into slices that start one word into their
// allocation, so the kernels see 8-byte-aligned data only.
func misaligned(f *HalfPoly) *HalfPoly {
	m := f.M()
	re, im := make([]float64, m+1)[1:], make([]float64, m+1)[1:]
	copy(re, f.Re)
	copy(im, f.Im)
	return &HalfPoly{Re: re, Im: im}
}

// requireClose fails unless got and want agree to within tol times the
// largest magnitude in want.
func requireClose(t *testing.T, what string, got, want *HalfPoly, tol float64) {
	t.Helper()
	scale := 0.0
	for k := range want.Re {
		scale = math.Max(scale, math.Max(math.Abs(want.Re[k]), math.Abs(want.Im[k])))
	}
	for k := range want.Re {
		dr := math.Abs(got.Re[k] - want.Re[k])
		di := math.Abs(got.Im[k] - want.Im[k])
		if dr > tol*scale || di > tol*scale || math.IsNaN(got.Re[k]) || math.IsNaN(got.Im[k]) {
			t.Fatalf("%s point %d: asm (%g, %g), generic (%g, %g), scale %g",
				what, k, got.Re[k], got.Im[k], want.Re[k], want.Im[k], scale)
		}
	}
}

func requireEqualTorus(t *testing.T, what string, got, want []Torus32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s coef %d: asm %#x, generic %#x", what, i, got[i], want[i])
		}
	}
}

func TestKernelsMatchGeneric(t *testing.T) {
	requireAVX2(t)
	const tol = 1e-12
	for _, n := range kernelSizes {
		t.Run(fmt.Sprintf("N%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n) + 100))
			tab := halfTablesFor(n)
			m := n / 2
			if !tab.avx2 {
				t.Fatal("tables did not select the vector kernels")
			}

			digits := randDigits(rng, n)
			got, want := NewHalfPoly(m), NewHalfPoly(m)
			halfFoldIntAVX2(got.Re, got.Im, tab.foldRe, tab.foldIm, digits.Coefs)
			halfFoldGeneric(want.Re, want.Im, tab.foldRe, tab.foldIm, digits.Coefs)
			requireClose(t, "fold int", got, want, tol)

			poly := randTorus(rng, n)
			halfFoldTorusAVX2(got.Re, got.Im, tab.foldRe, tab.foldIm, poly.Coefs)
			halfFoldGeneric(want.Re, want.Im, tab.foldRe, tab.foldIm, poly.Coefs)
			requireClose(t, "fold torus", got, want, tol)

			x := randSpectrum(rng, m)
			got, want = misaligned(x), cloneHalf(x)
			tab.fftAVX2(got.Re, got.Im)
			tab.fftGeneric(want.Re, want.Im)
			requireClose(t, "fft", got, want, tol)

			got, want = misaligned(x), cloneHalf(x)
			tab.ifftAVX2(got.Re, got.Im)
			tab.ifftGeneric(want.Re, want.Im)
			requireClose(t, "ifft", got, want, tol)

			acc := randSpectrum(rng, m)
			a1, b1, a2, b2 := randSpectrum(rng, m), randSpectrum(rng, m), randSpectrum(rng, m), randSpectrum(rng, m)
			got, want = misaligned(acc), cloneHalf(acc)
			a1 = misaligned(a1)
			mulAccPairAVX2(&got.Re[0], &got.Im[0], &a1.Re[0], &a1.Im[0], &b1.Re[0], &b1.Im[0],
				&a2.Re[0], &a2.Im[0], &b2.Re[0], &b2.Im[0], m)
			want.mulAccPairToGeneric(a1, b1, a2, b2)
			requireClose(t, "mulacc pair", got, want, tol)

			// Unfold and round: a spectrum of an exact integer product, so
			// every coefficient sits next to an integer and both rounding
			// paths must land on it.
			fa, fb, prod := NewHalfPoly(m), NewHalfPoly(m), NewHalfPoly(m)
			halfFoldGeneric(fa.Re, fa.Im, tab.foldRe, tab.foldIm, digits.Coefs)
			tab.fftGeneric(fa.Re, fa.Im)
			halfFoldGeneric(fb.Re, fb.Im, tab.foldRe, tab.foldIm, poly.Coefs)
			tab.fftGeneric(fb.Re, fb.Im)
			prod.mulAccPairToGeneric(fa, fb, fa, fb)
			tab.ifftGeneric(prod.Re, prod.Im)
			base := randTorus(rng, n)
			gotT, wantT := NewTorusPoly(n), NewTorusPoly(n)
			gotT.Copy(base)
			wantT.Copy(base)
			halfUnfoldAVX2(gotT.Coefs, prod.Re, prod.Im, tab.foldRe, tab.foldIm)
			halfUnfoldGeneric(wantT.Coefs, prod.Re, prod.Im, tab.foldRe, tab.foldIm)
			requireEqualTorus(t, "unfold", gotT.Coefs, wantT.Coefs)
		})
	}
}

// TestAddHalfToTorusAsmMatchesGeneric runs the whole product pipeline on
// each path and requires bit-identical torus results.
func TestAddHalfToTorusAsmMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	for _, n := range kernelSizes {
		t.Run(fmt.Sprintf("N%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n) + 200))
			p := NewProcessor(n)
			tab := p.halfTab()
			m := n / 2
			d1, d2 := randDigits(rng, n), randDigits(rng, n)
			k1, k2 := randTorus(rng, n), randTorus(rng, n)

			// Vector path through the public entry points.
			fd1, fd2, fk1, fk2, acc := NewHalfPoly(m), NewHalfPoly(m), NewHalfPoly(m), NewHalfPoly(m), NewHalfPoly(m)
			p.HalfFoldInt(fd1, d1)
			p.HalfFoldInt(fd2, d2)
			p.HalfFoldTorus(fk1, k1)
			p.HalfFoldTorus(fk2, k2)
			acc.MulAccPairTo(fd1, fk1, fd2, fk2)
			got := NewTorusPoly(n)
			p.AddHalfToTorus(got, acc)

			// Portable path.
			g := func(src []int32) *HalfPoly {
				f := NewHalfPoly(m)
				halfFoldGeneric(f.Re, f.Im, tab.foldRe, tab.foldIm, src)
				tab.fftGeneric(f.Re, f.Im)
				return f
			}
			gk := func(src []Torus32) *HalfPoly {
				f := NewHalfPoly(m)
				halfFoldGeneric(f.Re, f.Im, tab.foldRe, tab.foldIm, src)
				tab.fftGeneric(f.Re, f.Im)
				return f
			}
			gacc := NewHalfPoly(m)
			gacc.mulAccPairToGeneric(g(d1.Coefs), gk(k1.Coefs), g(d2.Coefs), gk(k2.Coefs))
			tab.ifftGeneric(gacc.Re, gacc.Im)
			want := NewTorusPoly(n)
			halfUnfoldGeneric(want.Coefs, gacc.Re, gacc.Im, tab.foldRe, tab.foldIm)
			requireEqualTorus(t, "product", got.Coefs, want.Coefs)

			naive := NewTorusPoly(n)
			AddMulNaive(naive, d1, k1)
			AddMulNaive(naive, d2, k2)
			requireEqualTorus(t, "naive", got.Coefs, naive.Coefs)
		})
	}
}

// TestHalfMulWorstCaseMagnitude drives the largest products a Default128
// external product can form: every digit at the balanced-gadget extreme
// (+64, then -64) against key coefficients of magnitude 2^31, so each
// result coefficient is a coherent sum of N terms of 2^37. The half path
// must still round to the naive convolution.
func TestHalfMulWorstCaseMagnitude(t *testing.T) {
	const n = 1024
	p := NewProcessor(n)
	keys := map[string]func(i int) Torus32{
		"all-min":     func(int) Torus32 { return 0x80000000 },
		"all-max":     func(int) Torus32 { return 0x7fffffff },
		"alternating": func(i int) Torus32 { return Torus32(0x7fffffff + uint32(i&1)) },
	}
	for _, digit := range []int32{64, -64} {
		for name, key := range keys {
			t.Run(fmt.Sprintf("%d/%s", digit, name), func(t *testing.T) {
				a := NewIntPoly(n)
				b := NewTorusPoly(n)
				for i := 0; i < n; i++ {
					a.Coefs[i] = digit
					b.Coefs[i] = key(i)
				}
				fa, fb, acc := NewHalfPoly(n/2), NewHalfPoly(n/2), NewHalfPoly(n/2)
				p.HalfFoldInt(fa, a)
				p.HalfFoldTorus(fb, b)
				acc.MulAccTo(fa, fb)
				got := NewTorusPoly(n)
				p.AddHalfToTorus(got, acc)
				want := NewTorusPoly(n)
				MulNaive(want, a, b)
				requireEqualTorus(t, "worst case", got.Coefs, want.Coefs)
			})
		}
	}
}

// TestSubMatchesGeneric checks the key-switch row subtraction on random
// rows, wraparound included, at lengths around the vector width and the
// key-switch output dimensions.
func TestSubMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 500, 630} {
		dst := make([]Torus32, n+3) // longer than src: the extra words stay put
		src := make([]Torus32, n)
		for i := range dst {
			dst[i] = rng.Uint32()
		}
		for i := range src {
			src[i] = rng.Uint32()
		}
		if n > 0 {
			dst[0], src[0] = 1, 0xffffffff // 1 - (2^32-1) wraps to 2
		}
		got := append([]Torus32(nil), dst...)
		want := append([]Torus32(nil), dst...)
		subAVX2(got[:n], src)
		subGeneric(want[:n], src)
		requireEqualTorus(t, fmt.Sprintf("sub n=%d", n), got, want)
		if n > 0 && got[0] != 2 {
			t.Fatalf("n=%d: 1 - 0xffffffff = %#x, want 2", n, got[0])
		}
	}
}

// FuzzHalfMul feeds random digit and torus polynomials through the half
// path (the vector kernels where the CPU has them) and requires the naive
// negacyclic convolution.
func FuzzHalfMul(f *testing.F) {
	f.Add(uint8(3), []byte("seed"))
	f.Add(uint8(6), []byte{0xff, 0xff, 0xff, 0x7f, 0x00, 0x00, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, logN uint8, data []byte) {
		n := 1 << (2 + logN%9) // 4 .. 1024
		rng := rand.New(rand.NewSource(int64(len(data))))
		a := NewIntPoly(n)
		b := NewTorusPoly(n)
		for i := 0; i < n; i++ {
			a.Coefs[i] = int32(rng.Intn(128)) - 64
			b.Coefs[i] = rng.Uint32()
		}
		// The fuzz bytes overwrite a prefix: digits from the low 7 bits,
		// torus words four bytes at a time.
		for i := 0; i < n && i < len(data); i++ {
			a.Coefs[i] = int32(data[i]&0x7f) - 64
		}
		for i := 0; i < n && 4*i+4 <= len(data); i++ {
			b.Coefs[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		p := NewProcessor(n)
		fa, fb, acc := NewHalfPoly(n/2), NewHalfPoly(n/2), NewHalfPoly(n/2)
		p.HalfFoldInt(fa, a)
		p.HalfFoldTorus(fb, b)
		acc.MulAccPairTo(fa, fb, fa, fb)
		got := NewTorusPoly(n)
		p.AddHalfToTorus(got, acc)
		want := NewTorusPoly(n)
		AddMulNaive(want, a, b)
		AddMulNaive(want, a, b)
		for i := range want.Coefs {
			if got.Coefs[i] != want.Coefs[i] {
				t.Fatalf("N=%d coef %d: half %#x, naive %#x", n, i, got.Coefs[i], want.Coefs[i])
			}
		}
	})
}
