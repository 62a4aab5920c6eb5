package boot

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"pytfhe/internal/params"
	"pytfhe/internal/trand"
)

// tinyParams is a toy parameter set whose key encodes in a few hundred
// bytes, so the fuzzer can mutate a complete valid key cheaply.
func tinyParams() *params.GateParams {
	return &params.GateParams{
		Name: "tiny", LWEDimension: 2, LWEStdev: math.Pow(2, -20),
		PolyDegree: 4, RingCount: 1, TLWEStdev: math.Pow(2, -30),
		DecompLevels: 1, DecompBaseLog: 8, KSLevels: 1, KSBaseLog: 1,
	}
}

func mustKey(t testing.TB, p *params.GateParams, seed string) *CloudKey {
	t.Helper()
	_, ck, err := GenerateKeys(p, trand.NewSeeded([]byte(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func mustMarshal(t testing.TB, ck *CloudKey) []byte {
	t.Helper()
	b, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCloudKeyRoundTrip checks that the coefficient encoding is canonical
// and lossless: Marshal→Unmarshal→Marshal is byte-identical, the decoded
// half-complex bootstrapping key is bit-identical to the generated one,
// and the rebuilt key-switching key matches the original row for row,
// Variance included.
func TestCloudKeyRoundTrip(t *testing.T) {
	sets := []*params.GateParams{params.Test()}
	if !testing.Short() {
		sets = append(sets, params.Default128())
	}
	for _, p := range sets {
		t.Run(p.Name, func(t *testing.T) {
			ck := mustKey(t, p, "codec-roundtrip")
			b1 := mustMarshal(t, ck)
			if want := keyHeaderSize(p); len(b1) < want {
				t.Fatalf("encoding is %d bytes, shorter than its %d-byte header", len(b1), want)
			}
			var rt CloudKey
			if err := rt.UnmarshalBinary(b1); err != nil {
				t.Fatal(err)
			}
			if *rt.Params != *ck.Params {
				t.Fatalf("params %+v, want %+v", *rt.Params, *ck.Params)
			}
			if b2 := mustMarshal(t, &rt); !bytes.Equal(b1, b2) {
				t.Fatal("re-encoding the decoded key changed its bytes")
			}
			for i, g := range ck.BK {
				for u, row := range g.Rows {
					for c, hp := range row {
						got := rt.BK[i].Rows[u][c]
						for j := range hp.Re {
							if got.Re[j] != hp.Re[j] || got.Im[j] != hp.Im[j] {
								t.Fatalf("BK[%d] row %d poly %d point %d differs", i, u, c, j)
							}
						}
					}
				}
			}
			for i, plane := range ck.KS.Rows {
				for j, digits := range plane {
					for v, s := range digits {
						got := rt.KS.Rows[i][j][v]
						if got.B != s.B || got.Variance != s.Variance || !equalWords(got.A, s.A) {
							t.Fatalf("KS[%d][%d][%d] differs (variance %g, want %g)", i, j, v, got.Variance, s.Variance)
						}
					}
				}
			}
		})
	}
}

func equalWords(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCloudKeyRejectsMalformed pins the typed rejection of each header and
// length defect, and of a key without parameters.
func TestCloudKeyRejectsMalformed(t *testing.T) {
	good := mustMarshal(t, mustKey(t, tinyParams(), "codec-bad"))
	edit := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := map[string][]byte{
		"empty":     nil,
		"magic":     edit(func(b []byte) []byte { b[0] ^= 1; return b }),
		"version":   edit(func(b []byte) []byte { b[len(keyMagic)]++; return b }),
		"truncated": good[:len(good)-1],
		"header":    good[:len(keyMagic)+3],
		"trailing":  append(append([]byte(nil), good...), 0),
		// Ring degree 3 is not a power of two.
		"params": edit(func(b []byte) []byte { b[len(keyMagic)+1+4+len("tiny")+4] = 3; return b }),
		// A huge LWE dimension must fail the length check, not allocate.
		"huge": edit(func(b []byte) []byte {
			copy(b[len(keyMagic)+1+4+len("tiny"):], []byte{0xff, 0xff, 0xff, 0x7f})
			return b
		}),
	}
	for name, data := range cases {
		var ck CloudKey
		if err := ck.UnmarshalBinary(data); !errors.Is(err, ErrKeyFormat) {
			t.Errorf("%s: error %v, want ErrKeyFormat", name, err)
		}
	}
	if _, err := (&CloudKey{}).MarshalBinary(); !errors.Is(err, ErrKeyFormat) {
		t.Errorf("no params: error %v, want ErrKeyFormat", err)
	}
}

// FuzzUnmarshalCloudKey feeds arbitrary bytes to the decoder: it must
// never panic, must reject with ErrKeyFormat, and whatever it accepts must
// re-encode to exactly the input (the encoding is canonical).
func FuzzUnmarshalCloudKey(f *testing.F) {
	for _, p := range []*params.GateParams{tinyParams(), params.Test()} {
		b := mustMarshal(f, mustKey(f, p, "codec-fuzz"))
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(keyMagic)+1])
		bumped := append([]byte(nil), b...)
		bumped[len(keyMagic)]++
		f.Add(bumped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ck CloudKey
		if err := ck.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrKeyFormat) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		b, err := ck.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded key does not re-encode: %v", err)
		}
		if !bytes.Equal(b, data) {
			t.Fatal("decoded key re-encodes to different bytes")
		}
	})
}
