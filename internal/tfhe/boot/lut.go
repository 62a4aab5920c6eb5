package boot

import (
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
)

// Programmable bootstrapping: TFHE's blind rotation evaluates an arbitrary
// lookup table *during* the noise refresh (the property the paper's §II.B
// highlights). The test vector is programmed so that coefficient 0 of the
// rotated accumulator is lut(m) when the input phase encodes message m.
//
// Because the ring is negacyclic (X^N = -1), a test vector can only
// represent a function over half the torus directly: inputs must encode
// messages in [0, msize/2), or the function must satisfy the antiperiodic
// condition f(m + msize/2) = -f(m). BootstrapLUT implements the half-torus
// convention and documents the wraparound.

// BootstrapLUT evaluates dst = Enc(lut(m)) for an input encrypting message
// m in a space of msize slots (phase m/msize). msize must be even, at most
// 2N, and the encrypted message must lie in [0, msize/2); messages in the
// upper half decrypt to -lut(m - msize/2) by negacyclicity. The output is
// key-switched to the gate key like a normal gate bootstrap.
func (e *Evaluator) BootstrapLUT(dst *lwe.Sample, lut func(m int) torus.Torus32, msize int, src *lwe.Sample) error {
	return e.done(e.one(dst, 0, src).BootstrapLUTBatch(e.dst, lut, msize, e.src))
}
