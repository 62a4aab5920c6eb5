package serve

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pytfhe/internal/tfhe/boot"
)

// TestServeKeyDedupDecodesOnce checks hash-before-decode: a second session
// under the same cloud key is recognized by the hash of the uploaded bytes
// and shares the registered key without decoding it, and a re-open after
// the last session closed (the key released) decodes it again.
func TestServeKeyDedupDecodesOnce(t *testing.T) {
	kp := tenantKeys(t)[0]
	prog := adder4Prog(t)
	srv := startServer(t, Config{Workers: 1})

	open := func(wantShared bool) *Client {
		t.Helper()
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		info, err := cl.OpenSession(kp.Cloud)
		if err != nil {
			t.Fatal(err)
		}
		if info.KeyShared != wantShared {
			t.Fatalf("KeyShared = %v, want %v", info.KeyShared, wantShared)
		}
		return cl
	}
	decodes := func(want int64) {
		t.Helper()
		if got := srv.keyDecodes.Load(); got != want {
			t.Fatalf("cloud key decoded %d times, want %d", got, want)
		}
	}

	cl1 := open(false)
	decodes(1)
	cl2 := open(true)
	decodes(1)
	info, err := cl2.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := cl2.Evaluate(info.Hash, kp.EncryptBits(bitsOf(0x35, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if got := uintOf(kp.DecryptBits(outs)); got != 0x3+0x5 {
		t.Fatalf("shared-key eval = %#x, want %#x", got, 0x3+0x5)
	}

	cl1.Close()
	cl2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.statsSnapshot().KeysReleased != 1 {
		if time.Now().After(deadline) {
			t.Fatal("key never released after its last session closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl3 := open(false)
	defer cl3.Close()
	decodes(2)
}

// TestServeMalformedKeyRejected checks that a cloud key that does not
// decode is answered with the typed rejection, not an internal error, and
// leaves the connection without a session.
func TestServeMalformedKeyRejected(t *testing.T) {
	kp := tenantKeys(t)[0]
	srv := startServer(t, Config{Workers: 1})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	good, err := kp.Cloud.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, key := range map[string][]byte{
		"empty":     nil,
		"truncated": good[:len(good)-4],
		"garbage":   []byte("not a cloud key"),
	} {
		_, err := cl.roundTrip(Request{Open: &OpenSession{Key: key}})
		if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), boot.ErrKeyFormat.Error()) {
			t.Fatalf("%s key: error %v, want ErrRejected for a malformed key", name, err)
		}
	}
	if _, err := cl.Evaluate("0", nil); !errors.Is(err, ErrNoSession) {
		t.Fatalf("evaluate after rejected opens: %v, want ErrNoSession", err)
	}
}
