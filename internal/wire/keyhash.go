package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"pytfhe/internal/tfhe/boot"
)

// KeyHash content-addresses a cloud key: SHA-256 over its canonical
// fixed-width encoding (boot.CloudKey.MarshalBinary, ~93 MB at
// Default128). Both the daemon's session registry and the cluster
// handshake use it, so a worker joining a coordinator can prove it will
// evaluate under the same key the clients encrypted against.
//
// The hash must depend on key content alone — the cluster handshake
// compares hashes computed in three binaries (client, daemon, worker) —
// which the key's own encoding guarantees: it is fixed-width and
// canonical (equal keys encode to equal bytes), unlike gob, whose type
// IDs depend on what else the process encoded first.
func KeyHash(ck *boot.CloudKey) (string, error) {
	if ck == nil {
		return "", fmt.Errorf("wire: hash cloud key: nil key")
	}
	b, err := ck.MarshalBinary()
	if err != nil {
		return "", fmt.Errorf("wire: hash cloud key: %w", err)
	}
	return KeyBytesHash(b), nil
}

// KeyBytesHash is KeyHash of an already-encoded key. The daemon hashes
// the bytes a client uploads before decoding them, so a key that is
// already registered is never decoded a second time.
func KeyBytesHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
