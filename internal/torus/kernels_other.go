//go:build !amd64

package torus

// Without the amd64 assembly kernels every entry point takes its portable
// …Generic body; the constant lets the compiler drop the vector branches.
const hasAVX2FMA = false

func (t *halfTables) fftAVX2(re, im []float64)  { panic("torus: no vector kernels") }
func (t *halfTables) ifftAVX2(re, im []float64) { panic("torus: no vector kernels") }

func halfFoldIntAVX2(re, im, foldRe, foldIm []float64, src []int32) {
	panic("torus: no vector kernels")
}

func halfFoldTorusAVX2(re, im, foldRe, foldIm []float64, src []Torus32) {
	panic("torus: no vector kernels")
}

func halfUnfoldAVX2(dst []Torus32, re, im, foldRe, foldIm []float64) {
	panic("torus: no vector kernels")
}

func mulAccPairAVX2(fr, fi, a1r, a1i, b1r, b1i, a2r, a2i, b2r, b2i *float64, m int) {
	panic("torus: no vector kernels")
}

func subAVX2(dst, src []Torus32) { panic("torus: no vector kernels") }
