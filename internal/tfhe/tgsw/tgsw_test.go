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

func TestExternalProductSelectsMessage(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-extprod"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	const msize = 8

	for _, bit := range []int32{0, 1} {
		g := NewSample(testN, testK, testParams)
		Encrypt(g, bit, key.TLWE.Stdev, key, rng)
		proc := torus.NewProcessor(testN)
		fg := g.ToFourier(proc)

		mu := torus.NewTorusPoly(testN)
		mu.Coefs[0] = torus.ModSwitchToTorus32(3, msize)
		mu.Coefs[7] = torus.ModSwitchToTorus32(5, msize)
		c := tlwe.NewSample(testN, testK)
		tlwe.Encrypt(c, mu, key.TLWE.Stdev, key.TLWE, rng)

		acc := tlwe.NewSample(testN, testK)
		sc := NewScratch(testN, testK, testParams)
		sc.ExternalProductAdd(acc, fg, c)

		phase := torus.NewTorusPoly(testN)
		tlwe.Phase(phase, acc, key.TLWE)
		want0, want7 := int32(0), int32(0)
		if bit == 1 {
			want0, want7 = 3, 5
		}
		if got := torus.ModSwitchFromTorus32(phase.Coefs[0], msize); got != want0 {
			t.Fatalf("bit=%d coef0 = %d, want %d", bit, got, want0)
		}
		if got := torus.ModSwitchFromTorus32(phase.Coefs[7], msize); got != want7 {
			t.Fatalf("bit=%d coef7 = %d, want %d", bit, got, want7)
		}
	}
}

func TestCMux(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-cmux"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	proc := torus.NewProcessor(testN)
	const msize = 8

	mu1 := torus.NewTorusPoly(testN)
	mu0 := torus.NewTorusPoly(testN)
	mu1.Coefs[0] = torus.ModSwitchToTorus32(6, msize)
	mu0.Coefs[0] = torus.ModSwitchToTorus32(2, msize)
	c1 := tlwe.NewSample(testN, testK)
	c0 := tlwe.NewSample(testN, testK)
	tlwe.Encrypt(c1, mu1, key.TLWE.Stdev, key.TLWE, rng)
	tlwe.Encrypt(c0, mu0, key.TLWE.Stdev, key.TLWE, rng)

	for _, bit := range []int32{0, 1} {
		g := NewSample(testN, testK, testParams)
		Encrypt(g, bit, key.TLWE.Stdev, key, rng)
		fg := g.ToFourier(proc)

		sc := NewScratch(testN, testK, testParams)
		dst := tlwe.NewSample(testN, testK)
		sc.CMux(dst, fg, c1, c0)

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
	proc := torus.NewProcessor(testN)
	const msize = 8
	const shift = 11

	mu := torus.NewTorusPoly(testN)
	mu.Coefs[0] = torus.ModSwitchToTorus32(4, msize)

	for _, bit := range []int32{0, 1} {
		g := NewSample(testN, testK, testParams)
		Encrypt(g, bit, key.TLWE.Stdev, key, rng)
		fg := g.ToFourier(proc)

		acc := tlwe.NewSample(testN, testK)
		tlwe.Encrypt(acc, mu, key.TLWE.Stdev, key.TLWE, rng)
		sc := NewScratch(testN, testK, testParams)
		sc.CMuxRotateInPlace(acc, fg, shift)

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
