package tensor

import "math"

// Kernels of the gradient codec (grad.encodeRow, grad.decodeRowAccum). A
// 1-bit row's payload is one bit per value: bit k%8 of byte k/8 belongs to
// value k, so byte j covers the 8-lane block j and the AVX2 kernels move a
// whole byte per block. A ternary row's payload is two bits per value: bits
// 2(k%4) and 2(k%4)+1 of byte k/4, so the two bytes 2j and 2j+1 cover the
// 8-lane block j.

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

// AbsRatios sets p[k] = float64(|x[k]|) / float64(d), |x[k]| being x[k] with
// its sign bit cleared, and bit k%8 of sign[k/8] to x[k]'s sign bit — the
// keep probabilities and the signs of the ternary encode. Each p[k] is one
// true float64 division. sign must hold (len(x)+7)/8 bytes and p len(x)
// values; every byte of sign is overwritten.
func AbsRatios(x []float32, d float32, p []float64, sign []byte) {
	if len(p) != len(x) || len(sign) != (len(x)+7)/8 {
		panic("tensor: AbsRatios length mismatch")
	}
	n := 0
	if useAVX2 && len(x) >= lanes {
		n = len(x) &^ (lanes - 1)
		absRatiosAVX2(x[:n], d, p[:n], sign[:n/lanes])
	}
	absRatiosGo(x[n:], d, p[n:], sign[n/lanes:])
}

// absRatiosGo is the portable loop: the sign is read off the bit pattern,
// never compared.
func absRatiosGo(x []float32, d float32, p []float64, sign []byte) {
	const signBit = 1 << 31
	dd := float64(d)
	for j := range sign {
		var packed uint32
		for k, v := range x[8*j : min(8*j+8, len(x))] {
			b := math.Float32bits(v)
			p[8*j+k] = float64(math.Float32frombits(b&^signBit)) / dd
			packed |= b >> 31 << uint(k)
		}
		sign[j] = byte(packed)
	}
}

// AddTernary adds to x[k] the addend its 2-bit code selects: pos for code 1,
// neg for code 2, and −0 for codes 0 and 3, the one addend that leaves every
// sum unchanged (x + (+0) would turn a −0 in x into +0). Code k is bits
// 2(k%4)..2(k%4)+1 of codes[k/4]. x[k] is the first operand of every
// addition, so where it is NaN the sum keeps its payload. codes must hold
// (len(x)+3)/4 bytes.
func AddTernary(codes []byte, pos, neg float32, x []float32) {
	if len(codes) != (len(x)+3)/4 {
		panic("tensor: AddTernary length mismatch")
	}
	n := 0
	if useAVX2 && len(x) >= lanes {
		n = len(x) &^ (lanes - 1)
		addTernaryAVX2(codes[:n/4], pos, neg, x[:n])
	}
	addTernaryGo(codes[n/4:], pos, neg, x[n:])
}

// addTernaryGo is the portable loop, four values per payload byte; the
// addend is picked by indexing, not by a branch on the code.
func addTernaryGo(codes []byte, pos, neg float32, x []float32) {
	negZero := math.Float32frombits(1 << 31)
	add := [4]float32{negZero, pos, neg, negZero}
	if math.IsNaN(float64(pos)) || math.IsNaN(float64(neg)) {
		addTernaryNaNGo(codes, &add, x)
		return
	}
	for ; len(x) >= 4; codes, x = codes[1:], x[4:] {
		b, v := codes[0], x[:4:4]
		v[0] += add[b&3]
		v[1] += add[b>>2&3]
		v[2] += add[b>>4&3]
		v[3] += add[b>>6]
	}
	for k := range x {
		x[k] += add[codes[0]>>uint(2*k)&3]
	}
}

// addTernaryNaNGo is addTernaryGo for a NaN addend, with the rule of
// addSignedNaNGo: where x[k] is NaN too, it is doubled instead, which is
// x[k] quieted whatever operand order the compiler picks.
func addTernaryNaNGo(codes []byte, add *[4]float32, x []float32) {
	for k, v := range x {
		a := add[codes[k/4]>>uint(2*(k%4))&3]
		if math.IsNaN(float64(v)) {
			a = v
		}
		x[k] = v + a
	}
}
