package torus

// hasAVX2FMA reports whether the assembly kernels in kernels_amd64.s may
// run: the CPU implements AVX2 and FMA and the OS saves the YMM state on
// context switches. It is fixed at package init; every kernel entry point
// branches on it once per call.
var hasAVX2FMA = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves SSE and AVX (YMM) state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// fftAVX2 is fftGeneric on the vector kernels. Radix-4 stages with q >= 4
// run four butterflies per iteration; the s=8 stage runs fused with the
// radix-2 tail that always follows it, and the s=4 stage (twiddles all
// one) runs one block per iteration.
func (t *halfTables) fftAVX2(re, im []float64) {
	for _, st := range t.stages {
		switch st.q {
		case 1:
			halfStage4AVX2(re, im, &fwdStage4Signs)
		case 2:
			halfFwdStage8AVX2(re, im, &t.tail8)
		default:
			w := st.off
			halfFwdStageAVX2(re, im, t.fwdRe[w:w+3*st.q], t.fwdIm[w:w+3*st.q])
		}
	}
}

// ifftAVX2 is ifftGeneric on the vector kernels, the stages of fftAVX2
// inverted in reverse order.
func (t *halfTables) ifftAVX2(re, im []float64) {
	for si := len(t.stages) - 1; si >= 0; si-- {
		st := t.stages[si]
		switch st.q {
		case 1:
			halfStage4AVX2(re, im, &invStage4Signs)
		case 2:
			halfInvStage8AVX2(re, im, &t.tail8)
		default:
			w := st.off
			halfInvStageAVX2(re, im, t.fwdRe[w:w+3*st.q], t.fwdIm[w:w+3*st.q])
		}
	}
}

// Sign masks of the s=4 stage kernel, which computes a block of four
// outputs as [a, b, a, b] + ([c, e, c, e] with these lanes negated), real
// parts under the first four words and imaginary parts under the last four.
// The forward and inverse butterflies differ only in which lanes flip.
const signBit = 1 << 63

var (
	fwdStage4Signs = [8]uint64{0, 0, signBit, signBit, 0, signBit, signBit, 0}
	invStage4Signs = [8]uint64{0, signBit, signBit, 0, 0, 0, signBit, signBit}
)

// The assembly kernels. All of them use unaligned loads and stores, so
// slices need only the 8-byte alignment Go gives a []float64.

// halfFwdStageAVX2 runs one forward radix-4 stage of quarter
// q = len(wr)/3 >= 4 over every block of re/im.
//
//go:noescape
func halfFwdStageAVX2(re, im, wr, wi []float64)

// halfInvStageAVX2 inverts halfFwdStageAVX2 (up to a factor of 4).
//
//go:noescape
func halfInvStageAVX2(re, im, wr, wi []float64)

// halfFwdStage8AVX2 runs the forward s=8 stage and then the radix-2 tail.
//
//go:noescape
func halfFwdStage8AVX2(re, im []float64, tw *[16]float64)

// halfInvStage8AVX2 runs the radix-2 head of the inverse and then the
// inverse s=8 stage.
//
//go:noescape
func halfInvStage8AVX2(re, im []float64, tw *[16]float64)

// halfStage4AVX2 runs the s=4 stage, forward or inverse by its sign masks.
//
//go:noescape
func halfStage4AVX2(re, im []float64, signs *[8]uint64)

// halfFoldIntAVX2 is halfFoldGeneric over M = len(re) points.
//
//go:noescape
func halfFoldIntAVX2(re, im, foldRe, foldIm []float64, src []int32)

// halfFoldTorusAVX2 is halfFoldIntAVX2 on torus coefficients, which it
// reads as signed integers.
//
//go:noescape
func halfFoldTorusAVX2(re, im, foldRe, foldIm []float64, src []Torus32)

// halfUnfoldAVX2 is halfUnfoldGeneric. It rounds with the 1.5·2^52 trick:
// adding the constant leaves round(x) mod 2^32 in the low word of the sum
// for |x| < 2^51.
//
//go:noescape
func halfUnfoldAVX2(dst []Torus32, re, im, foldRe, foldIm []float64)

// mulAccPairAVX2 is mulAccPairToGeneric over m points, m a multiple of 4.
//
//go:noescape
func mulAccPairAVX2(fr, fi, a1r, a1i, b1r, b1i, a2r, a2i, b2r, b2i *float64, m int)

// subAVX2 is subGeneric.
//
//go:noescape
func subAVX2(dst, src []Torus32)
