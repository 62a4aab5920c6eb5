package tgsw

import (
	"math"
	"testing"

	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

const (
	testN = 256
	testK = 1
)

var testParams = Params{Levels: 3, BaseLog: 7}

func TestDecomposeRecompose(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-decomp"))
	src := torus.NewTorusPoly(testN)
	for i := range src.Coefs {
		src.Coefs[i] = rng.Torus32()
	}
	dst := make([]*torus.IntPoly, testParams.Levels)
	for i := range dst {
		dst[i] = torus.NewIntPoly(testN)
	}
	DecomposePoly(dst, src, testParams)

	halfBase := int32(1) << (testParams.BaseLog - 1)
	// Recompose: sum_j dst[j] * 2^(32-(j+1)*BaseLog) truncates src's low
	// bits, so the error is one-sided and below 1/Bg^l in magnitude.
	for i := range src.Coefs {
		var recomposed uint32
		for j := 0; j < testParams.Levels; j++ {
			d := dst[j].Coefs[i]
			if d < -halfBase || d >= halfBase {
				t.Fatalf("digit out of range: %d", d)
			}
			recomposed += uint32(d) << (32 - uint(j+1)*uint(testParams.BaseLog))
		}
		diff := int32(recomposed - src.Coefs[i])
		limit := int32(1) << (32 - uint(testParams.Levels)*uint(testParams.BaseLog))
		if diff > 0 || diff <= -limit {
			t.Fatalf("coef %d: recomposition error %d outside (-%d, 0]", i, diff, limit)
		}
	}
}

// rotate runs one CMux rotation acc += g ⊡ ((X^a − 1)·acc) as the batch
// of one on the half-complex engine.
func rotate(acc *tlwe.Sample, g *Sample, a int) {
	bs := NewBatchScratch(testN, testK, testParams)
	bs.CMuxRotateBatchHalf([]*tlwe.Sample{acc}, g.Half(bs.Proc), []int{a})
}

// TestExternalProductSelectsMessage checks the external product inside the
// rotation: the increment acc' − acc decrypts to bit·(X^a − 1)·mu, so it
// carries the rotated difference when the TGSW sample encrypts one and
// nothing when it encrypts zero.
func TestExternalProductSelectsMessage(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-extprod"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	const msize = 8
	const shift = 7

	for _, bit := range []int32{0, 1} {
		g := NewSample(testN, testK, testParams)
		Encrypt(g, bit, key.TLWE.Stdev, key, rng)

		mu := torus.NewTorusPoly(testN)
		mu.Coefs[0] = torus.ModSwitchToTorus32(3, msize)
		mu.Coefs[7] = torus.ModSwitchToTorus32(5, msize)
		c := tlwe.NewSample(testN, testK)
		tlwe.Encrypt(c, mu, key.TLWE.Stdev, key.TLWE, rng)

		acc := tlwe.NewSample(testN, testK)
		acc.Copy(c)
		rotate(acc, g, shift)
		acc.SubFrom(c)

		phase := torus.NewTorusPoly(testN)
		tlwe.Phase(phase, acc, key.TLWE)
		// (X^7 − 1)·(3 + 5X^7) = −3 − 2X^7 + 5X^14 (mod 8: 5, 6, 5).
		want := map[int]int32{0: 0, 7: 0, 14: 0}
		if bit == 1 {
			want = map[int]int32{0: 5, 7: 6, 14: 5}
		}
		for j, w := range want {
			if got := torus.ModSwitchFromTorus32(phase.Coefs[j], msize); got != w {
				t.Fatalf("bit=%d coef%d = %d, want %d", bit, j, got, w)
			}
		}
	}
}

// TestCMux selects between c0 and X^N·c0 = −c0: rotating by N is the CMux
// of those two, so a message 2 comes out as 2 or as −2 ≡ 6.
func TestCMux(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-cmux"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	const msize = 8

	mu0 := torus.NewTorusPoly(testN)
	mu0.Coefs[0] = torus.ModSwitchToTorus32(2, msize)
	c0 := tlwe.NewSample(testN, testK)
	tlwe.Encrypt(c0, mu0, key.TLWE.Stdev, key.TLWE, rng)

	for _, bit := range []int32{0, 1} {
		g := NewSample(testN, testK, testParams)
		Encrypt(g, bit, key.TLWE.Stdev, key, rng)

		dst := tlwe.NewSample(testN, testK)
		dst.Copy(c0)
		rotate(dst, g, testN)

		phase := torus.NewTorusPoly(testN)
		tlwe.Phase(phase, dst, key.TLWE)
		want := int32(2)
		if bit == 1 {
			want = 6
		}
		if got := torus.ModSwitchFromTorus32(phase.Coefs[0], msize); got != want {
			t.Fatalf("cmux(bit=%d) = %d, want %d", bit, got, want)
		}
	}
}

func TestCMuxRotate(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-rotate"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	const msize = 8
	const shift = 11

	mu := torus.NewTorusPoly(testN)
	mu.Coefs[0] = torus.ModSwitchToTorus32(4, msize)

	for _, bit := range []int32{0, 1} {
		g := NewSample(testN, testK, testParams)
		Encrypt(g, bit, key.TLWE.Stdev, key, rng)

		acc := tlwe.NewSample(testN, testK)
		tlwe.Encrypt(acc, mu, key.TLWE.Stdev, key.TLWE, rng)
		rotate(acc, g, shift)

		phase := torus.NewTorusPoly(testN)
		tlwe.Phase(phase, acc, key.TLWE)
		wantIdx := 0
		if bit == 1 {
			wantIdx = shift
		}
		if got := torus.ModSwitchFromTorus32(phase.Coefs[wantIdx], msize); got != 4 {
			t.Fatalf("bit=%d: message not found at coef %d (got %d)", bit, wantIdx, got)
		}
	}
}

// TestDecomposePolyDigits checks DecomposePoly coefficient by coefficient
// against the digit formula digit_j(c) = ((c + offset) >> (32 -
// (j+1)·Bgbit)) & (Bg-1) - Bg/2, on the edge words and around the point
// where c + offset carries out of 32 bits, for several gadget geometries
// (l·Bgbit = 32 included, where the last shift is zero).
func TestDecomposePolyDigits(t *testing.T) {
	for _, p := range []Params{{3, 7}, {2, 8}, {4, 8}, {1, 1}, {6, 5}, {2, 16}} {
		off := p.Offset()
		inputs := []uint32{
			0, 1, 0x7fffffff, 0x80000000, 0xffffffff,
			-off - 1, -off, -off + 1, // c + offset: 2^32-1, 0, 1
			0x12345678, 0xdeadbeef,
		}
		src := torus.NewTorusPoly(len(inputs))
		copy(src.Coefs, inputs)
		dst := make([]*torus.IntPoly, p.Levels)
		for j := range dst {
			dst[j] = torus.NewIntPoly(len(inputs))
		}
		DecomposePoly(dst, src, p)
		for i, c := range inputs {
			for j := 0; j < p.Levels; j++ {
				shift := 32 - uint(j+1)*uint(p.BaseLog)
				want := int32(((c+off)>>shift)&(uint32(1)<<p.BaseLog-1)) - int32(1)<<(p.BaseLog-1)
				if got := dst[j].Coefs[i]; got != want {
					t.Fatalf("l=%d Bgbit=%d c=%#x level %d: digit %d, want %d",
						p.Levels, p.BaseLog, c, j, got, want)
				}
			}
		}
	}
	// Literal digits at l=3, Bgbit=7: 0 decomposes to all zeros, 0xffffffff
	// (-2^-32) borrows into a -1 at the last level, and 0x80000000 (1/2)
	// wraps the top digit to -Bg/2.
	p := Params{Levels: 3, BaseLog: 7}
	src := &torus.TorusPoly{Coefs: []uint32{0, 0xffffffff, 0x80000000}}
	dst := []*torus.IntPoly{torus.NewIntPoly(3), torus.NewIntPoly(3), torus.NewIntPoly(3)}
	DecomposePoly(dst, src, p)
	want := [3][3]int32{{0, 0, -64}, {0, 0, 0}, {0, -1, 0}}
	for j := range want {
		for i := range want[j] {
			if dst[j].Coefs[i] != want[j][i] {
				t.Fatalf("level %d coef %d: digit %d, want %d", j, i, dst[j].Coefs[i], want[j][i])
			}
		}
	}
}

func TestOffsetMatchesDefinition(t *testing.T) {
	p := Params{Levels: 2, BaseLog: 8}
	// offset = sum_j (Bg/2) * 2^(32 - j*Bgbit) for j=1..l
	want := uint32(128)<<24 + uint32(128)<<16
	if got := p.Offset(); got != want {
		t.Fatalf("offset = %#x, want %#x", got, want)
	}
}
