package boot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/torus"
)

// Cloud-key wire format (MarshalBinary), all integers little-endian:
//
//	magic "PYTFHEK" and one version byte
//	params: u32 name length, name bytes, u32 n, N, k, l, Bgbit, t,
//	        basebit, then the f64 bits of the LWE and TLWE stdevs
//	BK:     for each of the n TGSW samples, each of its (k+1)·l rows and
//	        each of the row's k+1 polynomials, N u32 coefficients
//	KS:     for each input index i < N·k, digit j < t and digit value
//	        1 ≤ v < 2^basebit, the n u32 mask words then the u32 body
//
// The bootstrapping key lives in memory in the half-complex domain; it is
// unfolded to coefficients on encode and folded back on decode. Both
// directions are exact (the unfold rounds float errors far below 0.5), so
// a decoded key is bit-identical to the original and the encoding of a key
// is canonical: equal keys give equal bytes, which is what lets a cloud
// key be content-addressed by hashing its encoding. The key-switching
// rows for digit 0 (noiseless zeros) and every Variance field (α² for the
// encrypted rows) are rebuilt from the parameters rather than shipped.

// ErrKeyFormat marks a cloud-key encoding that cannot be decoded: bad
// magic, unknown version, invalid parameters, or a length that does not
// match the parameters. Errors from UnmarshalBinary wrap it.
var ErrKeyFormat = errors.New("boot: malformed cloud key")

const (
	keyMagic   = "PYTFHEK"
	keyVersion = 1
	// maxKeyBytes bounds the body a header may declare, so hostile
	// parameters can neither overflow the size arithmetic nor request an
	// absurd allocation.
	maxKeyBytes = math.MaxInt32
)

// putWords writes ws to dst as little-endian words.
func putWords(dst []byte, ws []uint32) {
	for j, w := range ws {
		binary.LittleEndian.PutUint32(dst[4*j:], w)
	}
}

// getWords fills ws from the little-endian words at the start of src.
func getWords(ws []uint32, src []byte) {
	for j := range ws {
		ws[j] = binary.LittleEndian.Uint32(src[4*j:])
	}
}

// keyHeaderSize returns the encoded size of the magic, version and params.
func keyHeaderSize(p *params.GateParams) int {
	return len(keyMagic) + 1 + 4 + len(p.Name) + 7*4 + 2*8
}

// keyBodySize returns the byte length of the BK and KS sections that
// params p imply, or false when it exceeds maxKeyBytes.
func keyBodySize(p *params.GateParams) (int, bool) {
	n, bigN := uint64(p.LWEDimension), uint64(p.PolyDegree)
	k, l := uint64(p.RingCount), uint64(p.DecompLevels)
	t, digits := uint64(p.KSLevels), uint64(1)<<p.KSBaseLog-1
	bk, ok1 := product(4, n, k+1, k+1, l, bigN)
	ks, ok2 := product(4, bigN, k, t, digits, n+1)
	if !ok1 || !ok2 || bk+ks > maxKeyBytes {
		return 0, false
	}
	return int(bk + ks), true
}

// product multiplies fs, reporting false once the running product passes
// maxKeyBytes.
func product(fs ...uint64) (uint64, bool) {
	r := uint64(1)
	for _, f := range fs {
		hi, lo := bits.Mul64(r, f)
		if hi != 0 || lo > maxKeyBytes {
			return 0, false
		}
		r = lo
	}
	return r, true
}

// MarshalBinary encodes the key in the fixed-width coefficient form
// described above. It fails when the key's parameters are invalid or
// imply a key above the size limit.
func (ck *CloudKey) MarshalBinary() ([]byte, error) {
	if err := ck.checkShape(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrKeyFormat, err)
	}
	p := ck.Params
	body, _ := keyBodySize(p)
	buf := make([]byte, 0, keyHeaderSize(p)+body)
	buf = append(buf, keyMagic...)
	buf = append(buf, keyVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Name)))
	buf = append(buf, p.Name...)
	for _, v := range []int{p.LWEDimension, p.PolyDegree, p.RingCount, p.DecompLevels,
		p.DecompBaseLog, p.KSLevels, p.KSBaseLog} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.LWEStdev))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.TLWEStdev))

	words := func(ws []uint32) {
		off := len(buf)
		buf = buf[:off+4*len(ws)]
		putWords(buf[off:], ws)
	}
	proc := torus.NewProcessor(p.PolyDegree)
	coef := torus.NewTorusPoly(p.PolyDegree)
	for _, g := range ck.BK {
		for _, row := range g.Rows {
			for _, hp := range row {
				coef.Clear()
				proc.AddHalfToTorus(coef, hp)
				words(coef.Coefs)
			}
		}
	}
	for _, plane := range ck.KS.Rows {
		for _, digits := range plane {
			for _, s := range digits[1:] {
				words(s.A)
				buf = binary.LittleEndian.AppendUint32(buf, s.B)
			}
		}
	}
	return buf, nil
}

// checkShape verifies that ck has parameters this codec accepts, within
// the size bound. Keys come from GenerateKeys or UnmarshalBinary, which
// both build the exact shape the parameters imply.
func (ck *CloudKey) checkShape() error {
	p := ck.Params
	if p == nil {
		return errors.New("no parameters")
	}
	if err := checkParams(p); err != nil {
		return err
	}
	if _, ok := keyBodySize(p); !ok {
		return errors.New("parameters imply a key above the size limit")
	}
	return nil
}

// UnmarshalBinary decodes a key written by MarshalBinary, folding the
// bootstrapping key straight into the half-complex domain. The magic,
// version, parameters and the exact length the parameters imply are all
// checked before anything is allocated; every failure wraps ErrKeyFormat.
func (ck *CloudKey) UnmarshalBinary(data []byte) error {
	p, body, err := decodeKeyHeader(data)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrKeyFormat, err)
	}
	n, bigN, k := p.LWEDimension, p.PolyDegree, p.RingCount
	m, kk := bigN/2, k+1
	gp := tgsw.Params{Levels: p.DecompLevels, BaseLog: p.DecompBaseLog}
	words := func(dst []uint32) {
		getWords(dst, body)
		body = body[4*len(dst):]
	}

	// Every half polynomial is carved from one slab: 2·M floats each.
	rows := kk * p.DecompLevels
	slab := make([]float64, n*rows*kk*2*m)
	proc := torus.NewProcessor(bigN)
	coef := torus.NewTorusPoly(bigN)
	bk := make([]*tgsw.HalfSample, n)
	for i := range bk {
		g := &tgsw.HalfSample{K: k, Params: gp, Rows: make([][]*torus.HalfPoly, rows)}
		for u := range g.Rows {
			g.Rows[u] = make([]*torus.HalfPoly, kk)
			for c := range g.Rows[u] {
				words(coef.Coefs)
				hp := &torus.HalfPoly{Re: slab[:m:m], Im: slab[m : 2*m : 2*m]}
				slab = slab[2*m:]
				proc.HalfFoldTorus(hp, coef)
				g.Rows[u][c] = hp
			}
		}
		bk[i] = g
	}

	nIn, base := p.ExtractedLWEDimension(), 1<<p.KSBaseLog
	ks := &lwe.SwitchKey{NIn: nIn, NOut: n, Levels: p.KSLevels, BaseLog: p.KSBaseLog,
		Rows: make([][][]*lwe.Sample, nIn)}
	// Every digit-0 row is the same read-only noiseless zero, so the
	// decoded key shares one; the encrypted rows are carved from one slab.
	zero := lwe.NewSample(n)
	rowsKS := make([]lwe.Sample, nIn*p.KSLevels*(base-1))
	masks := make([]uint32, len(rowsKS)*n)
	variance := p.LWEStdev * p.LWEStdev
	for i := range ks.Rows {
		ks.Rows[i] = make([][]*lwe.Sample, p.KSLevels)
		for j := range ks.Rows[i] {
			digits := make([]*lwe.Sample, base)
			digits[0] = zero
			for v := 1; v < base; v++ {
				s := &rowsKS[0]
				rowsKS = rowsKS[1:]
				s.A, masks = masks[:n:n], masks[n:]
				words(s.A)
				s.B = binary.LittleEndian.Uint32(body)
				body = body[4:]
				s.Variance = variance
				digits[v] = s
			}
			ks.Rows[i][j] = digits
		}
	}
	*ck = CloudKey{Params: p, BK: bk, KS: ks}
	return nil
}

// decodeKeyHeader parses and validates the magic, version and params, and
// checks that the remaining bytes are exactly the body the params imply.
// It returns the params and the body.
func decodeKeyHeader(data []byte) (*params.GateParams, []byte, error) {
	if !bytes.HasPrefix(data, []byte(keyMagic)) {
		return nil, nil, errors.New("bad magic")
	}
	data = data[len(keyMagic):]
	if len(data) < 1+4 {
		return nil, nil, errors.New("truncated header")
	}
	if v := data[0]; v != keyVersion {
		return nil, nil, fmt.Errorf("version %d, want %d", v, keyVersion)
	}
	nameLen := uint64(binary.LittleEndian.Uint32(data[1:]))
	data = data[5:]
	const fixed = 7*4 + 2*8
	if uint64(len(data)) < nameLen+fixed {
		return nil, nil, errors.New("truncated header")
	}
	name, data := data[:nameLen], data[nameLen:]
	var ints [7]int
	for i := range ints {
		ints[i] = int(binary.LittleEndian.Uint32(data[4*i:]))
	}
	data = data[7*4:]
	p := &params.GateParams{
		LWEDimension:  ints[0],
		PolyDegree:    ints[1],
		RingCount:     ints[2],
		DecompLevels:  ints[3],
		DecompBaseLog: ints[4],
		KSLevels:      ints[5],
		KSBaseLog:     ints[6],
		LWEStdev:      math.Float64frombits(binary.LittleEndian.Uint64(data)),
		TLWEStdev:     math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
	}
	data = data[16:]
	if err := checkParams(p); err != nil {
		return nil, nil, err
	}
	body, ok := keyBodySize(p)
	if !ok {
		return nil, nil, errors.New("parameters imply a key above the size limit")
	}
	if len(data) != body {
		return nil, nil, fmt.Errorf("key body is %d bytes, parameters imply %d", len(data), body)
	}
	p.Name = string(name)
	return p, data, nil
}
