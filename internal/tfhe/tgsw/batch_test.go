package tgsw

import (
	"fmt"
	"math"
	"testing"

	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// TestCMuxRotateBatchMatchesSingle verifies that the batched rotation is
// bit-exact with per-member CMuxRotateInPlace across batch sizes, including
// sizes that leave odd leftovers in the cross-member pair walk.
func TestCMuxRotateBatchMatchesSingle(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-batch"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	proc := torus.NewProcessor(testN)

	g := NewSample(testN, testK, testParams)
	Encrypt(g, 1, key.TLWE.Stdev, key, rng)
	fg := g.ToFourier(proc)

	sc := NewScratch(testN, testK, testParams)
	bs := NewBatchScratch(testN, testK, testParams, 2) // force growth past 2
	hg := fg.Half(torus.NewProcessor(testN))

	for _, b := range []int{1, 2, 3, 7, 16} {
		t.Run(fmt.Sprintf("B%d", b), func(t *testing.T) {
			single := make([]*tlwe.Sample, b)
			batched := make([]*tlwe.Sample, b)
			half := make([]*tlwe.Sample, b)
			as := make([]int, b)
			for m := 0; m < b; m++ {
				mu := torus.NewTorusPoly(testN)
				for i := range mu.Coefs {
					mu.Coefs[i] = rng.Torus32()
				}
				single[m] = tlwe.NewSample(testN, testK)
				tlwe.Encrypt(single[m], mu, key.TLWE.Stdev, key.TLWE, rng)
				batched[m] = tlwe.NewSample(testN, testK)
				batched[m].Copy(single[m])
				half[m] = tlwe.NewSample(testN, testK)
				half[m].Copy(single[m])
				as[m] = 1 + int(rng.Torus32()%uint32(2*testN-1)) // in [1, 2N)
			}

			for m := 0; m < b; m++ {
				sc.CMuxRotateInPlace(single[m], fg, as[m])
			}
			bs.CMuxRotateBatch(batched, fg, as)
			bs.CMuxRotateBatchHalf(half, hg, as)

			for m := 0; m < b; m++ {
				for c := range single[m].A {
					for j, want := range single[m].A[c].Coefs {
						if got := batched[m].A[c].Coefs[j]; got != want {
							t.Fatalf("member %d poly %d coef %d: batch %#x, single %#x", m, c, j, got, want)
						}
						if got := half[m].A[c].Coefs[j]; got != want {
							t.Fatalf("member %d poly %d coef %d: half %#x, single %#x", m, c, j, got, want)
						}
					}
				}
				if single[m].Variance != batched[m].Variance || single[m].Variance != half[m].Variance {
					t.Fatalf("member %d: variance batch %g half %g, single %g",
						m, batched[m].Variance, half[m].Variance, single[m].Variance)
				}
			}
		})
	}
}

func benchBatchSetup(b *testing.B) (*FourierSample, *trand.Source, *tlwe.Key) {
	b.Helper()
	rng := trand.NewSeeded([]byte("tgsw-bench"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	g := NewSample(testN, testK, testParams)
	Encrypt(g, 1, key.TLWE.Stdev, key, rng)
	return g.ToFourier(torus.NewProcessor(testN)), rng, key.TLWE
}

func BenchmarkKernelExternalProductAdd(b *testing.B) {
	fg, rng, tk := benchBatchSetup(b)
	src := tlwe.NewSample(testN, testK)
	mu := torus.NewTorusPoly(testN)
	for i := range mu.Coefs {
		mu.Coefs[i] = rng.Torus32()
	}
	tlwe.Encrypt(src, mu, tk.Stdev, tk, rng)
	acc := tlwe.NewSample(testN, testK)
	sc := NewScratch(testN, testK, testParams)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.ExternalProductAdd(acc, fg, src)
	}
}

// BenchmarkKernelCMuxRotate compares the per-rotation cost of the single
// path against the batched path at growing batch sizes; the per-op metric is
// one CMux rotation in both cases.
func BenchmarkKernelCMuxRotate(b *testing.B) {
	fg, rng, tk := benchBatchSetup(b)
	mkAcc := func() *tlwe.Sample {
		mu := torus.NewTorusPoly(testN)
		for i := range mu.Coefs {
			mu.Coefs[i] = rng.Torus32()
		}
		s := tlwe.NewSample(testN, testK)
		tlwe.Encrypt(s, mu, tk.Stdev, tk, rng)
		return s
	}

	b.Run("single", func(b *testing.B) {
		sc := NewScratch(testN, testK, testParams)
		acc := mkAcc()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.CMuxRotateInPlace(acc, fg, 1+i%(2*testN-1))
		}
	})
	for _, size := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			bs := NewBatchScratch(testN, testK, testParams, size)
			accs := make([]*tlwe.Sample, size)
			as := make([]int, size)
			for m := range accs {
				accs[m] = mkAcc()
				as[m] = 1 + m%(2*testN-1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				bs.CMuxRotateBatch(accs, fg, as)
			}
		})
	}
	for _, size := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("half-%d", size), func(b *testing.B) {
			hg := fg.Half(torus.NewProcessor(testN))
			bs := NewBatchScratch(testN, testK, testParams, size)
			accs := make([]*tlwe.Sample, size)
			as := make([]int, size)
			for m := range accs {
				accs[m] = mkAcc()
				as[m] = 1 + m%(2*testN-1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				bs.CMuxRotateBatchHalf(accs, hg, as)
			}
		})
	}
}

// BenchmarkKernelDecomposePoly decomposes one Default128-sized torus
// polynomial (N = 1024, l = 3, Bgbit = 7): two of these run per CMux.
func BenchmarkKernelDecomposePoly(b *testing.B) {
	const n = 1024
	rng := trand.NewSeeded([]byte("bench-decompose"))
	src := torus.NewTorusPoly(n)
	for i := range src.Coefs {
		src.Coefs[i] = rng.Torus32()
	}
	dst := make([]*torus.IntPoly, testParams.Levels)
	for j := range dst {
		dst[j] = torus.NewIntPoly(n)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DecomposePoly(dst, src, testParams)
	}
}
