package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/trand"
)

func testKey(t *testing.T, seed string) *boot.CloudKey {
	t.Helper()
	_, ck, err := boot.GenerateKeys(params.Test(), trand.NewSeeded([]byte(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestKeyHashIndependentOfGobState is the regression test for the cluster
// handshake's cross-binary key check. Gob assigns wire type IDs
// process-globally in first-use order, so a hash over gob output depends
// on what else the process has gob-encoded — and the client, daemon, and
// worker binaries each do different gob work before hashing the same key.
// KeyHash must therefore produce identical hashes before and after
// arbitrary unrelated gob traffic and across an encode/decode round trip
// of the key itself.
func TestKeyHashIndependentOfGobState(t *testing.T) {
	ck := testKey(t, "wire-keyhash")
	h1, err := KeyHash(ck)
	if err != nil {
		t.Fatal(err)
	}

	// Unrelated gob activity: churn the process-global type registry.
	type noise struct{ X map[string][]int }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(noise{X: map[string][]int{"a": {1}}}); err != nil {
		t.Fatal(err)
	}
	h2, err := KeyHash(ck)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash changed after unrelated gob traffic: %s vs %s", h1, h2)
	}

	// Round trip the key the way the serve and cluster streams carry it.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatal(err)
	}
	var rt boot.CloudKey
	if err := gob.NewDecoder(&buf).Decode(&rt); err != nil {
		t.Fatal(err)
	}
	h3, err := KeyHash(&rt)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h3 {
		t.Fatalf("hash changed across gob round trip: %s vs %s", h1, h3)
	}
}

// TestKeyHashDistinguishesKeys checks the hash actually depends on the key
// material, not just the parameter set.
func TestKeyHashDistinguishesKeys(t *testing.T) {
	h1, err := KeyHash(testKey(t, "tenant-a"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := KeyHash(testKey(t, "tenant-b"))
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatalf("distinct keys hashed identically: %s", h1)
	}
}

// TestKeyHashNil pins the error paths: a nil key, or a key that never got
// its parameters, must fail loudly rather than hash an empty skeleton.
func TestKeyHashNil(t *testing.T) {
	if _, err := KeyHash(nil); err == nil {
		t.Fatal("KeyHash(nil) did not fail")
	}
	ck := testKey(t, "wire-keyhash")
	mut := &boot.CloudKey{BK: ck.BK, KS: ck.KS}
	if _, err := KeyHash(mut); !errors.Is(err, boot.ErrKeyFormat) {
		t.Fatalf("KeyHash of a key without params: error %v, want boot.ErrKeyFormat", err)
	}
}

// TestCloudKeyFrameSize pins the key's wire size to its layout: every
// bootstrapping-key polynomial as N 32-bit coefficients, every nonzero
// key-switching digit as an (n+1)-word sample, plus the header (8 bytes of
// magic and version, a 4-byte name length, the name, seven 4-byte integer
// parameters and two 8-byte stdevs). gob carries the encoding as one byte
// string plus gob's framing and a one-time type descriptor.
func TestCloudKeyFrameSize(t *testing.T) {
	sets := []*params.GateParams{params.Test()}
	if !testing.Short() {
		sets = append(sets, params.Default128())
	}
	for _, p := range sets {
		_, ck, err := boot.GenerateKeys(p, trand.NewSeeded([]byte("wire-frame")))
		if err != nil {
			t.Fatal(err)
		}
		b, err := ck.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		n, bigN, k, l := p.LWEDimension, p.PolyDegree, p.RingCount, p.DecompLevels
		tt, base := p.KSLevels, 1<<p.KSBaseLog
		body := 4 * (n*(k+1)*(k+1)*l*bigN + bigN*k*tt*(base-1)*(n+1))
		header := 8 + 4 + len(p.Name) + 7*4 + 2*8
		if len(b) != body+header {
			t.Fatalf("%s: key encodes to %d bytes, want %d + %d", p.Name, len(b), body, header)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			t.Fatal(err)
		}
		if over := buf.Len() - len(b); over < 0 || over > 1024 {
			t.Fatalf("%s: gob frame %d bytes for a %d-byte key", p.Name, buf.Len(), len(b))
		}
	}
}

// BenchmarkCloudKeyCodec measures the per-session key costs at
// Default128: encoding on the client, decoding on the daemon, and the
// content hash both sides compute.
func BenchmarkCloudKeyCodec(b *testing.B) {
	_, ck, err := boot.GenerateKeys(params.Default128(), trand.NewSeeded([]byte("bench-codec")))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := ck.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := ck.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			var rt boot.CloudKey
			if err := rt.UnmarshalBinary(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			KeyBytesHash(enc)
		}
	})
}
