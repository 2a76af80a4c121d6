package tensor

import "math"

// Kernels of the 1-bit gradient codec (grad.encodeRow, grad.decodeRowAccum).
// A row's payload is one bit per value: bit k%8 of byte k/8 belongs to
// value k, so byte j covers the 8-lane block j and the AVX2 kernels move a
// whole byte per block.

// SignMaskAbsMax sets bit k of bits iff x[k] >= 0 (true for −0, false for
// NaN) and returns the largest |x[k]| that is not NaN, +0 when there is
// none: exactly the Go loop `if a > m { m = a }` from m = +0. bits must
// hold (len(x)+7)/8 bytes; every byte is overwritten.
func SignMaskAbsMax(x []float32, bits []byte) float32 {
	if len(bits) != (len(x)+7)/8 {
		panic("tensor: SignMaskAbsMax length mismatch")
	}
	var m float32
	n := 0
	if useAVX2 && len(x) >= lanes {
		n = len(x) &^ (lanes - 1)
		m = signMaskAbsMaxAVX2(x[:n], bits[:n/lanes])
	}
	return signMaskAbsMaxGo(x[n:], bits[n/lanes:], m)
}

// signMaskAbsMaxGo is the portable loop, continuing the maximum m. The sign
// test reads the bit pattern, because a gradient's sign is a coin flip and
// a branch on it mispredicts every other value: v >= 0 is "sign clear or
// ±0, and not NaN". Clearing the sign bit is enough for the maximum: NaN
// of either sign never wins a comparison, and neither does ±0.
func signMaskAbsMaxGo(x []float32, bits []byte, m float32) float32 {
	const signBit, infBits = 1 << 31, 0x7F800000 // |v| bits above infBits are NaN
	for j := range bits {
		var packed uint32
		for k, v := range x[8*j : min(8*j+8, len(x))] {
			b := math.Float32bits(v)
			abs := b &^ signBit
			ge := (b>>31 ^ 1 | (abs-1)>>31) &^ ((infBits - abs) >> 31)
			packed |= ge << uint(k)
			if a := math.Float32frombits(abs); a > m {
				m = a
			}
		}
		bits[j] = byte(packed)
	}
	return m
}

// AddSigned adds pos to x[k] where bit k of bits is set and neg where it is
// clear. x[k] is the first operand of every addition, so where both are NaN
// the sum keeps x[k]'s payload. bits must hold (len(x)+7)/8 bytes.
func AddSigned(bits []byte, pos, neg float32, x []float32) {
	if len(bits) != (len(x)+7)/8 {
		panic("tensor: AddSigned length mismatch")
	}
	n := 0
	if useAVX2 && len(x) >= lanes {
		n = len(x) &^ (lanes - 1)
		addSignedAVX2(bits[:n/lanes], pos, neg, x[:n])
	}
	addSignedGo(bits[n/lanes:], pos, neg, x[n:])
}

// addSignedGo is the portable loop: the addend is picked by indexing, not by
// a branch on the bit.
func addSignedGo(bits []byte, pos, neg float32, x []float32) {
	if math.IsNaN(float64(pos)) || math.IsNaN(float64(neg)) {
		addSignedNaNGo(bits, pos, neg, x)
		return
	}
	add := [2]float32{neg, pos}
	for ; len(x) >= 8; bits, x = bits[1:], x[8:] {
		b, v := bits[0], x[:8:8]
		v[0] += add[b&1]
		v[1] += add[b>>1&1]
		v[2] += add[b>>2&1]
		v[3] += add[b>>3&1]
		v[4] += add[b>>4&1]
		v[5] += add[b>>5&1]
		v[6] += add[b>>6&1]
		v[7] += add[b>>7]
	}
	for k := range x {
		x[k] += add[bits[0]>>uint(k)&1]
	}
}

// addSignedNaNGo is addSignedGo for a NaN addend. Where x[k] is NaN too, the
// sum must keep x[k]'s payload, as the kernel's VADDPS does; the compiler may
// put either operand of a Go addition first, so such an x[k] is doubled
// instead, which is x[k] quieted whatever the order.
func addSignedNaNGo(bits []byte, pos, neg float32, x []float32) {
	add := [2]float32{neg, pos}
	for k, v := range x {
		a := add[bits[k/8]>>uint(k%8)&1]
		if math.IsNaN(float64(v)) {
			a = v
		}
		x[k] = v + a
	}
}
