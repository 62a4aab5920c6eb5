package boot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// Golden output digests of the bootstrap entry points on seeded keys and
// inputs. They pin every output word of the kernels bit for bit, so a
// refactor of the blind-rotation engine or of the key representation
// cannot drift silently: the digests must hold unchanged.
var goldenDigests = map[string]map[string]string{
	"test": {
		"Bootstrap":      "34a9f773fbe9d54370eac675b771f55d545c08608f53b07c37044dc71fd445d7",
		"BootstrapWoKS":  "d3283fc16ee1d179495b98946ebcc3443d70df2c8b438ba06d6d6a2ccfd7de01",
		"BootstrapLUT":   "9e9d8c55220ed94a499af844cb955ebe157987583f1bae30a18f715fe1f3113a",
		"BootstrapBatch": "a6927a656aca2f450853cda93f6a0a507706b14557cef504d16acaa1acc81235",
		"KeySwitch":      "b5edecb60784e14cc669e6e840553474cad1ee170ecc77343e17c868e14589de",
	},
	"default128": {
		"Bootstrap":      "576d86e287ac2b533a6dd6ab7743865f870110126c069084e8660cd0aa59b23a",
		"BootstrapWoKS":  "11135f9ee2ac23b5589eac7a5e956068bf6bdb3910188ac58f8191acd484bcb2",
		"BootstrapLUT":   "8c5301470bca2813c7ca69b35f4680580a5e383967cfa81a6e2f0183bdc1d853",
		"BootstrapBatch": "800b2a3374f79d34548b8e05d909587bfa161efde78d06ffea212cd6262fc384",
		"KeySwitch":      "6f53961a7d7f672ad877829a4282cc8de727c115f3cefc211df5c87238222370",
	},
}

// hashSamples feeds every mask word and the body of each sample into h.
func hashSamples(h hash.Hash, ss ...*lwe.Sample) {
	var w [4]byte
	for _, s := range ss {
		for _, a := range s.A {
			binary.LittleEndian.PutUint32(w[:], a)
			h.Write(w[:])
		}
		binary.LittleEndian.PutUint32(w[:], s.B)
		h.Write(w[:])
	}
}

// goldenRun evaluates the fixed workload on a seeded key of parameter set
// p and returns one digest per entry point.
func goldenRun(t *testing.T, p *params.GateParams) map[string]string {
	t.Helper()
	_, ck, err := GenerateKeys(p, trand.NewSeeded([]byte("golden-key-"+p.Name)))
	if err != nil {
		t.Fatal(err)
	}
	rng := trand.NewSeeded([]byte("golden-inputs-" + p.Name))
	random := func(dim int) *lwe.Sample {
		s := lwe.NewSample(dim)
		for i := range s.A {
			s.A[i] = rng.Torus32()
		}
		s.B = rng.Torus32()
		return s
	}
	n, ext := p.LWEDimension, p.ExtractedLWEDimension()
	eval := NewEvaluator(ck)
	out := map[string]string{}
	digest := func(name string, ss ...*lwe.Sample) {
		h := sha256.New()
		hashSamples(h, ss...)
		out[name] = hex.EncodeToString(h.Sum(nil))
	}

	var boots []*lwe.Sample
	for i := 0; i < 3; i++ {
		dst := lwe.NewSample(n)
		mu := torus.Torus32(1) << 29
		if i == 2 {
			mu = rng.Torus32()
		}
		if err := eval.Bootstrap(dst, mu, random(n)); err != nil {
			t.Fatal(err)
		}
		boots = append(boots, dst)
	}
	digest("Bootstrap", boots...)

	var woks []*lwe.Sample
	for i := 0; i < 2; i++ {
		dst := lwe.NewSample(ext)
		eval.BootstrapWoKS(dst, torus.Torus32(1)<<29, random(n))
		woks = append(woks, dst)
	}
	digest("BootstrapWoKS", woks...)

	// One 3-input table over the eight-cell LUT message space.
	cells := [8]bool{true, false, false, true, false, true, true, false}
	mu18 := torus.Torus32(1) << 29
	lut := func(m int) torus.Torus32 {
		if cells[m] {
			return mu18
		}
		return -mu18
	}
	var luts []*lwe.Sample
	for i := 0; i < 2; i++ {
		dst := lwe.NewSample(n)
		if err := eval.BootstrapLUT(dst, lut, 8, random(n)); err != nil {
			t.Fatal(err)
		}
		luts = append(luts, dst)
	}
	digest("BootstrapLUT", luts...)

	const b = 5
	src := make([]*lwe.Sample, b)
	dst := make([]*lwe.Sample, b)
	mus := make([]torus.Torus32, b)
	for m := range src {
		src[m], dst[m], mus[m] = random(n), lwe.NewSample(n), torus.Torus32(1)<<29
	}
	mus[3] = rng.Torus32()
	if err := NewBatchEvaluator(ck, b).BootstrapBatch(dst, mus, src); err != nil {
		t.Fatal(err)
	}
	digest("BootstrapBatch", dst...)

	var ks []*lwe.Sample
	for i := 0; i < 3; i++ {
		d := lwe.NewSample(n)
		if err := ck.KS.Apply(d, random(ext)); err != nil {
			t.Fatal(err)
		}
		ks = append(ks, d)
	}
	digest("KeySwitch", ks...)
	return out
}

// TestBootstrapGoldenDigest checks the single-gate, LUT, batched and
// key-switch outputs against digests recorded before the engine was
// refactored.
func TestBootstrapGoldenDigest(t *testing.T) {
	sets := []*params.GateParams{params.Test()}
	if !testing.Short() {
		sets = append(sets, params.Default128())
	}
	for _, p := range sets {
		t.Run(p.Name, func(t *testing.T) {
			got := goldenRun(t, p)
			for name, want := range goldenDigests[p.Name] {
				if got[name] != want {
					t.Errorf("%s: digest %s, want %s", name, got[name], want)
				}
			}
		})
	}
}
