package torus

import (
	"fmt"
	"testing"
)

// Kernel-hot-path microbenchmarks (run via `make bench-kernel`): forward and
// inverse transforms, single vs pair-packed, at the two ring degrees used by
// the Test and Default128 parameter sets. The half-complex kernels and the
// key-switch row subtraction each run a generic and an asm sub-benchmark
// (the portable body and the vector kernel), so a change in a layer metric
// can be traced to one kernel.

// benchPaths runs the generic and, where the CPU has AVX2/FMA, the asm
// variant of one kernel as sub-benchmarks.
func benchPaths(b *testing.B, generic, asm func()) {
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			generic()
		}
	})
	b.Run("asm", func(b *testing.B) {
		requireAVX2(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			asm()
		}
	})
}

func benchPolys(n int) (*IntPoly, *IntPoly, *TorusPoly, *TorusPoly) {
	a := NewIntPoly(n)
	b := NewIntPoly(n)
	ta := NewTorusPoly(n)
	tb := NewTorusPoly(n)
	for i := 0; i < n; i++ {
		a.Coefs[i] = int32((i*37+11)%127) - 63
		b.Coefs[i] = int32((i*53+7)%127) - 63
		ta.Coefs[i] = Torus32(i * 0x9e3779b9)
		tb.Coefs[i] = Torus32(i*0x85ebca6b + 17)
	}
	return a, b, ta, tb
}

func BenchmarkKernelIntToFourier(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			a, _, _, _ := benchPolys(n)
			dst := NewFourierPoly(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.IntToFourier(dst, a)
			}
		})
	}
}

func BenchmarkKernelIntPairToFourier(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			pa, pb, _, _ := benchPolys(n)
			da := NewFourierPoly(n)
			db := NewFourierPoly(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.IntPairToFourier(da, db, pa, pb)
			}
		})
	}
}

func BenchmarkKernelAddFourierToTorus(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			a, _, _, _ := benchPolys(n)
			f := NewFourierPoly(n)
			p.IntToFourier(f, a)
			dst := NewTorusPoly(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.AddFourierToTorus(dst, f)
			}
		})
	}
}

func BenchmarkKernelAddFourierPairToTorus(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			pa, pb, _, _ := benchPolys(n)
			fa := NewFourierPoly(n)
			fb := NewFourierPoly(n)
			p.IntPairToFourier(fa, fb, pa, pb)
			da := NewTorusPoly(n)
			db := NewTorusPoly(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.AddFourierPairToTorus(da, db, fa, fb)
			}
		})
	}
}

func BenchmarkKernelHalfFoldInt(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			t := p.halfTab()
			a, _, _, _ := benchPolys(n)
			dst := NewHalfPoly(n / 2)
			benchPaths(b, func() {
				halfFoldGeneric(dst.Re, dst.Im, t.foldRe, t.foldIm, a.Coefs)
				t.fftGeneric(dst.Re, dst.Im)
			}, func() {
				halfFoldIntAVX2(dst.Re, dst.Im, t.foldRe, t.foldIm, a.Coefs)
				t.fftAVX2(dst.Re, dst.Im)
			})
		})
	}
}

func BenchmarkKernelAddHalfToTorus(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			t := p.halfTab()
			a, _, _, _ := benchPolys(n)
			f := NewHalfPoly(n / 2)
			p.HalfFoldInt(f, a)
			dst := NewTorusPoly(n)
			re, im := p.scReRe[:n/2], p.scIm[:n/2]
			benchPaths(b, func() {
				copy(re, f.Re)
				copy(im, f.Im)
				t.ifftGeneric(re, im)
				halfUnfoldGeneric(dst.Coefs, re, im, t.foldRe, t.foldIm)
			}, func() {
				copy(re, f.Re)
				copy(im, f.Im)
				t.ifftAVX2(re, im)
				halfUnfoldAVX2(dst.Coefs, re, im, t.foldRe, t.foldIm)
			})
		})
	}
}

func BenchmarkKernelHalfMulAccPair(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			pa, pb, _, _ := benchPolys(n)
			f1 := NewHalfPoly(n / 2)
			f2 := NewHalfPoly(n / 2)
			p.HalfFoldInt(f1, pa)
			p.HalfFoldInt(f2, pb)
			acc := NewHalfPoly(n / 2)
			benchPaths(b, func() {
				acc.mulAccPairToGeneric(f1, f2, f2, f1)
			}, func() {
				mulAccPairAVX2(&acc.Re[0], &acc.Im[0], &f1.Re[0], &f1.Im[0], &f2.Re[0], &f2.Im[0],
					&f2.Re[0], &f2.Im[0], &f1.Re[0], &f1.Im[0], n/2)
			})
		})
	}
}

// BenchmarkKernelKeySwitchSub subtracts one key-switch row at the
// Default128 output dimension (n = 630) 8192 times: the row work of one
// key switch from the N = 1024 extracted key (1024 coefficients × 8
// digits). The rows cycle through a 20 MB arena, as the key's rows do.
func BenchmarkKernelKeySwitchSub(b *testing.B) {
	const dim, rows = 630, 1024 * 8
	arena := make([]Torus32, dim*rows)
	for i := range arena {
		arena[i] = Torus32(i * 0x9e3779b9)
	}
	dst := make([]Torus32, dim)
	sweep := func(sub func(dst, src []Torus32)) func() {
		return func() {
			for r := 0; r < rows; r++ {
				sub(dst, arena[r*dim:(r+1)*dim])
			}
		}
	}
	benchPaths(b, sweep(subGeneric), sweep(subAVX2))
}

func BenchmarkKernelMulAccTo(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			pa, pb, _, _ := benchPolys(n)
			fa := NewFourierPoly(n)
			fb := NewFourierPoly(n)
			p.IntPairToFourier(fa, fb, pa, pb)
			acc := NewFourierPoly(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc.MulAccTo(fa, fb)
			}
		})
	}
}
