package tgsw

import (
	"fmt"
	"math"
	"testing"

	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// naiveRotate is the coefficient-domain oracle of one CMux rotation:
// acc += g ⊡ ((X^a − 1)·acc), with every digit-times-row product computed
// by direct negacyclic convolution from the un-transformed sample g.
func naiveRotate(acc *tlwe.Sample, g *Sample, a int) {
	diff := tlwe.NewSample(testN, testK)
	diff.MulByXaiMinusOne(a, acc)
	dec := make([]*torus.IntPoly, (testK+1)*testParams.Levels)
	for u := range dec {
		dec[u] = torus.NewIntPoly(testN)
	}
	DecomposeTLWE(dec, diff, g.Params)
	for u, d := range dec {
		for c := range acc.A {
			torus.AddMulNaive(acc.A[c], d, g.Rows[u].A[c])
		}
	}
	acc.Variance += diff.Variance
}

// TestCMuxRotateBatchMatchesSingle verifies that the half-complex batched
// rotation is bit-exact, member for member, with the coefficient-domain
// oracle across batch sizes, one scratch serving every size.
func TestCMuxRotateBatchMatchesSingle(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-batch"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)

	g := NewSample(testN, testK, testParams)
	Encrypt(g, 1, key.TLWE.Stdev, key, rng)
	bs := NewBatchScratch(testN, testK, testParams)
	hg := g.Half(bs.Proc)

	for _, b := range []int{1, 2, 3, 7, 16} {
		t.Run(fmt.Sprintf("B%d", b), func(t *testing.T) {
			single := make([]*tlwe.Sample, b)
			half := make([]*tlwe.Sample, b)
			as := make([]int, b)
			for m := 0; m < b; m++ {
				mu := torus.NewTorusPoly(testN)
				for i := range mu.Coefs {
					mu.Coefs[i] = rng.Torus32()
				}
				single[m] = tlwe.NewSample(testN, testK)
				tlwe.Encrypt(single[m], mu, key.TLWE.Stdev, key.TLWE, rng)
				half[m] = tlwe.NewSample(testN, testK)
				half[m].Copy(single[m])
				as[m] = 1 + int(rng.Torus32()%uint32(2*testN-1)) // in [1, 2N)
			}

			for m := 0; m < b; m++ {
				naiveRotate(single[m], g, as[m])
			}
			bs.CMuxRotateBatchHalf(half, hg, as)

			for m := 0; m < b; m++ {
				for c := range single[m].A {
					for j, want := range single[m].A[c].Coefs {
						if got := half[m].A[c].Coefs[j]; got != want {
							t.Fatalf("member %d poly %d coef %d: half %#x, oracle %#x", m, c, j, got, want)
						}
					}
				}
				if single[m].Variance != half[m].Variance {
					t.Fatalf("member %d: variance half %g, oracle %g", m, half[m].Variance, single[m].Variance)
				}
			}
		})
	}
}

// BenchmarkKernelCMuxRotate reports the per-rotation cost of the
// half-complex engine as the batch of one and at growing batch sizes; the
// per-op metric is one CMux rotation in every case.
func BenchmarkKernelCMuxRotate(b *testing.B) {
	rng := trand.NewSeeded([]byte("tgsw-bench"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	g := NewSample(testN, testK, testParams)
	Encrypt(g, 1, key.TLWE.Stdev, key, rng)
	hg := g.Half(torus.NewProcessor(testN))
	mkAcc := func() *tlwe.Sample {
		mu := torus.NewTorusPoly(testN)
		for i := range mu.Coefs {
			mu.Coefs[i] = rng.Torus32()
		}
		s := tlwe.NewSample(testN, testK)
		tlwe.Encrypt(s, mu, key.TLWE.Stdev, key.TLWE, rng)
		return s
	}
	for _, size := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("half-%d", size), func(b *testing.B) {
			bs := NewBatchScratch(testN, testK, testParams)
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
