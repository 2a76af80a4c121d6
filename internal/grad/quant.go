package grad

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"kgedist/internal/tensor"
	"kgedist/internal/xrand"
)

// Scheme identifies a gradient quantization scheme (§4.3).
type Scheme uint8

// The quantization schemes the paper's results use. OneBitMax (sign of the
// value times the maximum absolute value of the row) is the paper's winner
// and the one used by the combined strategies. The values are the scheme
// byte of the wire frame (Marshal), so they are fixed.
const (
	// NoQuant transmits full-precision float32 values.
	NoQuant Scheme = 0
	// OneBitMax: q_i = sign(v_i) * max(|v|).
	OneBitMax Scheme = 1
	// OneBitAvg: q_i = sign(v_i) * mean(|v|).
	OneBitAvg Scheme = 2
	// TwoBitTernary: TernGrad-style ternary quantization with the paper's
	// modification of using mean(|v|) instead of max(|v|):
	// q_i = sign(v_i) * mean(|v|) * B_i, P(B_i=1) = min(1, |v_i|/mean(|v|)).
	TwoBitTernary Scheme = 7
)

// String returns the scheme's name as used in the paper's plots.
func (s Scheme) String() string {
	switch s {
	case NoQuant:
		return "none"
	case OneBitMax:
		return "1bit-max"
	case OneBitAvg:
		return "1bit-avg"
	case TwoBitTernary:
		return "2bit-ternary"
	}
	return "unknown"
}

// BitsPerValue returns the payload bits each gradient value occupies on the
// wire (excluding the per-row scale).
func (s Scheme) BitsPerValue() int {
	switch s {
	case NoQuant:
		return 32
	case TwoBitTernary:
		return 2
	default:
		return 1
	}
}

// The codec is defined by float comparisons on gradient values (v >= 0,
// v > 0, v < 0), and a gradient's sign is a coin flip, so a loop that
// branches on them mispredicts every other value. The ternary kernels below
// read the same predicates off the IEEE-754 bit pattern instead, through
// classify; the 1-bit family's sign mask and ±scale add are
// tensor.SignMaskAbsMax and tensor.AddSigned.
const (
	signBit = 1 << 31
	infBits = 0x7F800000 // |v| bits above this are NaN
)

// classify splits a float32 bit pattern into three 0/1 words: neg is the
// sign bit, zero is set for ±0 and nan for any NaN. For the value v they
// describe, v > 0 is !neg && !zero && !nan, v < 0 is neg && !zero && !nan,
// and v >= 0 is (!neg || zero) && !nan.
func classify(b uint32) (neg, zero, nan uint32) {
	abs := b &^ signBit
	return b >> 31, (abs - 1) >> 31, (infBits - abs) >> 31
}

// spread moves bit k of x to bit 2k, leaving the odd bits clear.
func spread(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	return (v | v<<1) & 0x5555555555555555
}

// absBits returns the bit pattern of |v| exactly as `if v < 0 { v = -v }`
// leaves it: −0 and NaN keep their sign.
func absBits(b uint32) uint32 {
	neg, zero, nan := classify(b)
	return b ^ (neg&^(zero|nan))<<31
}

// absMean returns mean(|v|) over the row, summed in float64 in row order:
// the scale of OneBitAvg and TwoBitTernary.
func absMean(row []float32) float32 {
	if len(row) == 0 {
		return 0
	}
	var sum float64
	for _, v := range row {
		sum += float64(math.Float32frombits(absBits(math.Float32bits(v))))
	}
	return float32(sum / float64(len(row)))
}

// Encoded is a quantized sparse gradient ready for the wire: row indices,
// one scale per row, and the packed sign/ternary payload.
//
// An Encoded owns its three slices. QuantizeInto and UnmarshalInto reuse
// them across calls, so one Encoded per worker makes the encode and decode
// sides of every exchange allocation-free after warm-up; the contents are
// valid until the next *Into call on the same value. Not safe for
// concurrent use.
//
// In memory every row has a scale, NoQuant's being zero; on the wire (see
// Marshal) ids travel as delta-varints and NoQuant rows carry no scale.
type Encoded struct {
	Scheme  Scheme
	Width   int       // floats per row
	Indices []int32   // strictly ascending row ids, one per encoded row
	Scales  []float32 // per-row scale (zero and not sent under NoQuant)
	Bits    []byte    // packed payload, payloadBytesPerRow bytes per row
}

// payloadBytesPerRow returns the packed payload size of one row in bytes.
func payloadBytesPerRow(s Scheme, width int) int {
	switch s {
	case NoQuant:
		return 4 * width
	case TwoBitTernary:
		return (2*width + 7) / 8
	default:
		return (width + 7) / 8
	}
}

// frameHeader is the fixed head of a wire frame: scheme(1) width(4) nrows(4).
const frameHeader = 9

// maxFrameWidth bounds a decoded frame's width so that one row's bytes,
// scale included, fit in an int32 on every host.
const maxFrameWidth = (math.MaxInt32 - 4) / 4

// scaleBytesPerRow returns the wire size of one row's scale: NoQuant's
// scale is always zero, so it is not sent.
func scaleBytesPerRow(s Scheme) int {
	if s == NoQuant {
		return 0
	}
	return 4
}

// uvarintLen returns the length of x's minimal uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// idGap returns the delta-varint value that encodes id after prev: the
// number of ids skipped between them (prev = -1 before the first row).
func idGap(prev, id int32) uint64 { return uint64(int64(id) - int64(prev) - 1) }

// WireBytes returns the size of the Marshal frame in bytes — header, ids,
// scales and payload — computed without marshalling.
func (e *Encoded) WireBytes() int {
	n := frameHeader + len(e.Indices) + scaleBytesPerRow(e.Scheme)*len(e.Scales) + len(e.Bits)
	prev := int32(-1)
	for _, id := range e.Indices {
		if g := idGap(prev, id); g >= 0x80 {
			n += uvarintLen(g) - 1
		}
		prev = id
	}
	return n
}

// Quantize encodes the sparse gradient under the scheme into a freshly
// allocated Encoded. The rng is used only by TwoBitTernary's stochastic
// zeroing; it may be nil for the other schemes. The input gradient is not
// modified or retained. Hot paths should hold one Encoded and call
// QuantizeInto instead.
func Quantize(g *SparseGrad, s Scheme, rng *xrand.RNG) *Encoded {
	e := new(Encoded)
	QuantizeInto(e, g, s, rng)
	return e
}

// QuantizeInto encodes g under scheme s into e, reusing e's Indices, Scales
// and Bits storage (growing it only when a larger batch arrives). Any
// slices previously obtained from e are invalidated. g is only read; the
// rng is consumed exactly as by Quantize, so for a fixed seed the two
// produce bit-identical encodings.
func QuantizeInto(e *Encoded, g *SparseGrad, s Scheme, rng *xrand.RNG) {
	idx := g.Indices()
	w := g.Width()
	n := len(idx)
	per := payloadBytesPerRow(s, w)

	e.Scheme = s
	e.Width = w
	e.Indices = append(e.Indices[:0], idx...)
	if cap(e.Scales) < n {
		e.Scales = make([]float32, 0, n)
	}
	e.Scales = e.Scales[:0]
	if cap(e.Bits) < n*per {
		e.Bits = make([]byte, n*per)
	}
	e.Bits = e.Bits[:n*per]

	for r, id := range e.Indices {
		row, _ := g.Get(id)
		buf := e.Bits[r*per : (r+1)*per]
		e.Scales = append(e.Scales, encodeRow(s, row, buf, rng))
	}
}

// encodeRow packs one row under scheme s into buf (which must be exactly
// payloadBytesPerRow long; every byte is overwritten) and returns the per-row
// scale. The rng is consumed only by TwoBitTernary, in value order —
// QuantizeInto and the compressed-hop merge (Merger) share this helper so a
// re-encoded row is bit-compatible with a first-encoded one.
func encodeRow(s Scheme, row []float32, buf []byte, rng *xrand.RNG) float32 {
	switch s {
	case NoQuant:
		buf = buf[:4*len(row)]
		for i, v := range row {
			binary.LittleEndian.PutUint32(buf[4*i:4*i+4], math.Float32bits(v))
		}
		return 0
	case TwoBitTernary:
		mean := absMean(row)
		if !(mean > 0) { // all zero, or a NaN in the row: no value is kept and no coin drawn
			clear(buf)
			return mean
		}
		// Value k keeps its code with probability |v_k|/mean, drawn in
		// chunks of 64 by BernoulliMask. Its p is the division of |v_k| with
		// the sign cleared, which differs from absBits only for −0 and NaN,
		// where either sign is drawn (or not) the same and never hits. A hit
		// is therefore a nonzero, non-NaN value, whose code is 1 << sign:
		// 0 = zero, 1 = +scale, 2 = −scale, value k at bits 2k..2k+1.
		var p [64]float64
		for len(row) > 0 {
			c := min(len(row), 64)
			var neg uint64
			for k, v := range row[:c] {
				b := math.Float32bits(v)
				p[k] = float64(math.Float32frombits(b&^signBit)) / float64(mean)
				neg |= uint64(b>>31) << k
			}
			hits := rng.BernoulliMask(p[:c])
			plus, minus := hits&^neg, hits&neg
			var codes [16]byte
			binary.LittleEndian.PutUint64(codes[:8], spread(uint32(plus))|spread(uint32(minus))<<1)
			binary.LittleEndian.PutUint64(codes[8:], spread(uint32(plus>>32))|spread(uint32(minus>>32))<<1)
			buf = buf[copy(buf, codes[:]):] // all 16 bytes but in a row's last chunk
			row = row[c:]
		}
		return mean
	default: // 1-bit family: bit i set iff v_i >= 0 (true for −0, false for NaN)
		m := tensor.SignMaskAbsMax(row, buf)
		if s == OneBitMax {
			return m
		}
		return absMean(row)
	}
}

// Dequantize reconstructs the gradient rows and accumulates them into dst
// (which must share the encoded width). e is only read; dst provides the
// storage, so a caller holding dst across batches decodes without
// allocating once dst's row working set is warm.
func Dequantize(e *Encoded, dst *SparseGrad) {
	if dst.Width() != e.Width {
		panic("grad: Dequantize width mismatch")
	}
	per := payloadBytesPerRow(e.Scheme, e.Width)
	for r, id := range e.Indices {
		decodeRowAccum(e.Scheme, e.Scales[r], e.Bits[r*per:(r+1)*per], dst.Row(id))
	}
}

// decodeRowAccum adds one encoded row — scheme s, scale sc, packed payload
// buf — into row. Shared by Dequantize and the compressed-hop merge's
// overlap path.
//
// The lossy schemes add ±sc by flipping the scale's sign bit instead of
// branching to a subtraction: x − s and x + (−s) are the same IEEE-754
// operation. The one exception is a NaN scale, which an addition or
// subtraction hands through with its sign intact, so it is never negated.
func decodeRowAccum(s Scheme, sc float32, buf []byte, row []float32) {
	minus := -sc
	_, _, scNaN := classify(math.Float32bits(sc))
	if scNaN != 0 {
		minus = sc
	}
	switch s {
	case NoQuant:
		buf = buf[:4*len(row)]
		for i := range row {
			row[i] += math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i : 4*i+4]))
		}
	case TwoBitTernary:
		// Codes 0 and 3 add −0, the one addend that leaves every sum
		// unchanged: x + (+0) would turn a −0 already in the row into +0.
		add := [4]float32{math.Float32frombits(signBit), sc, minus, math.Float32frombits(signBit)}
		if scNaN != 0 {
			// Where the row holds a NaN too, keep its payload, as the 1-bit
			// decode does: the compiler may put either operand of a Go
			// addition first, so such a value is doubled instead, which is
			// the row's NaN quieted whatever the order.
			for k, v := range row {
				a := add[buf[k/4]>>uint(2*(k%4))&3]
				if _, _, nan := classify(math.Float32bits(v)); nan != 0 {
					a = v
				}
				row[k] = v + a
			}
			return
		}
		for ; len(row) >= 4; buf, row = buf[1:], row[4:] {
			b, v := buf[0], row[:4:4]
			v[0] += add[b&3]
			v[1] += add[b>>2&3]
			v[2] += add[b>>4&3]
			v[3] += add[b>>6]
		}
		for k := range row {
			row[k] += add[buf[0]>>uint(2*k)&3]
		}
	default:
		tensor.AddSigned(buf, sc, minus, row)
	}
}

// Marshal serializes the encoding into one freshly allocated byte slice for
// AllGatherBytes. The frame loses nothing the decoder needs:
//
//	scheme(1) width(4) nrows(4)   little-endian header
//	uvarint(id - prev - 1)        per row, prev = -1 before the first row
//	scale(4)                      per row, except under NoQuant
//	payload                       the packed bits, as in Bits
//
// Ids are strictly ascending, so every gap is >= 0, and dense ids cost one
// byte each. The result is safe to hand to a collective: every rank may
// retain it, which is exactly why this path does not reuse buffers
// (DESIGN.md §10 — wire payloads are never recycled).
func (e *Encoded) Marshal() []byte {
	return e.AppendTo(make([]byte, 0, e.WireBytes()))
}

// AppendTo appends the Marshal encoding to dst and returns the extended
// slice. Only use a recycled dst for process-local serialization; a buffer
// that will cross a collective must come from a fresh Marshal call.
func (e *Encoded) AppendTo(dst []byte) []byte {
	return appendFrame(dst, e.Scheme, e.Width, e.Indices, e.Scales, e.Bits)
}

// appendFrame appends one Marshal-layout frame over the given rows to dst.
func appendFrame(dst []byte, s Scheme, width int, ids []int32, scales []float32, payload []byte) []byte {
	dst = appendHeader(dst, s, width, len(ids))
	prev := int32(-1)
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, idGap(prev, id))
		prev = id
	}
	if s != NoQuant {
		for _, sc := range scales {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(sc))
		}
	}
	return append(dst, payload...)
}

// appendHeader appends the fixed frame head: scheme, width, row count.
func appendHeader(dst []byte, s Scheme, width, n int) []byte {
	dst = append(dst, byte(s))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(width))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// UnmarshalInto parses a buffer produced by Marshal into e, reusing e's
// storage; the decoded contents never alias buf, so buf may be recycled or
// owned by another rank. The buffer is untrusted peer input and is rejected
// when its header names an unknown scheme, a zero width or one past
// maxFrameWidth, when its row count exceeds the body (every id takes at
// least one byte) — checked before anything is sized from it — when an id
// gap is truncated, overlong (non-minimal) or takes an id past
// math.MaxInt32, or when the scales and payload do not fill the rest of buf
// exactly. A NoQuant frame decodes with one zero scale per row, as
// QuantizeInto leaves it. On error e is left in an unspecified state. Any
// slices previously obtained from e are invalidated.
func UnmarshalInto(e *Encoded, buf []byte) error {
	if len(buf) < frameHeader {
		return fmt.Errorf("grad: encoded buffer too short: %d bytes", len(buf))
	}
	e.Scheme = Scheme(buf[0])
	// Both counts are bounded as unsigned values before either becomes an
	// int, so on a 32-bit host neither turns negative nor overflows a row
	// size.
	width := binary.LittleEndian.Uint32(buf[1:])
	rows := binary.LittleEndian.Uint32(buf[5:])
	known := e.Scheme == NoQuant || e.Scheme == OneBitMax || e.Scheme == OneBitAvg || e.Scheme == TwoBitTernary
	if !known || width == 0 || width > maxFrameWidth || uint64(rows) > uint64(len(buf)-frameHeader) {
		return fmt.Errorf("grad: encoded buffer of %d bytes does not match its header (scheme %d, width %d, %d rows)",
			len(buf), e.Scheme, width, rows)
	}
	e.Width = int(width)
	n := int(rows)
	if cap(e.Indices) < n {
		e.Indices = make([]int32, n)
	}
	e.Indices = e.Indices[:n]
	off, prev := frameHeader, int64(-1)
	for i := range e.Indices {
		// One-byte gaps (dense ids) are the common case; a longer varint
		// is truncated (k == 0), overflows 64 bits (k < 0) or is overlong
		// when its last byte is zero.
		gap, k := uint64(0), 1
		if off < len(buf) && buf[off] < 0x80 {
			gap = uint64(buf[off])
		} else if gap, k = binary.Uvarint(buf[off:]); k <= 0 || buf[off+k-1] == 0 {
			k = 0
		}
		if k == 0 || gap > math.MaxInt32 || prev+1+int64(gap) > math.MaxInt32 {
			return fmt.Errorf("grad: encoded buffer has a truncated, overlong or out-of-range id gap at row %d", i)
		}
		prev += 1 + int64(gap)
		e.Indices[i] = int32(prev)
		off += k
	}
	// Dividing the rest by the row size, instead of multiplying the header's
	// row count out, cannot overflow whatever the header says.
	sb := scaleBytesPerRow(e.Scheme)
	body, row := len(buf)-off, sb+payloadBytesPerRow(e.Scheme, e.Width)
	if body%row != 0 || body/row != n {
		return fmt.Errorf("grad: encoded buffer of %d bytes does not match its header (scheme %d, width %d, %d rows)",
			len(buf), e.Scheme, e.Width, n)
	}
	if cap(e.Scales) < n {
		e.Scales = make([]float32, n)
	}
	e.Scales = e.Scales[:n]
	if sb == 0 {
		clear(e.Scales)
	} else {
		for i := range e.Scales {
			e.Scales[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
	}
	e.Bits = append(e.Bits[:0], buf[off:]...)
	return nil
}

// Check reports whether e, decoded from a peer's frame, is one the receiver
// can use: scheme s, width w and every row id in [lo, hi). A frame can
// decode cleanly and still be inconsistent — a wrong width would panic
// Dequantize and an out-of-range id would index past the receiver's table —
// so every decode of peer bytes checks before use. Ids are ascending, so the
// first and last bound them all.
func (e *Encoded) Check(s Scheme, w int, lo, hi int32) error {
	n := len(e.Indices)
	if e.Scheme == s && e.Width == w && (n == 0 || e.Indices[0] >= lo && e.Indices[n-1] < hi) {
		return nil
	}
	return mismatchError(e, s, w, lo, hi)
}

// mismatchError describes how e differs from the frame Check expected.
func mismatchError(e *Encoded, s Scheme, w int, lo, hi int32) error {
	if e.Scheme != s || e.Width != w {
		return fmt.Errorf("grad: frame is %v width %d, want %v width %d", e.Scheme, e.Width, s, w)
	}
	return fmt.Errorf("grad: frame rows [%d, %d] leave the id window [%d, %d)",
		e.Indices[0], e.Indices[len(e.Indices)-1], lo, hi)
}

// RowRange returns the half-open position range [i0, i1) of the encoded rows
// whose ids fall in [lo, hi). Because Indices are ascending, any id interval
// is a contiguous run of encoded rows — the property that lets the
// compressed-hop collectives slice an Encoded into per-rank chunks without
// re-sorting (DESIGN.md §13). Binary search; allocation-free.
func (e *Encoded) RowRange(lo, hi int32) (i0, i1 int) {
	i0 = searchIdx(e.Indices, lo)
	i1 = searchIdx(e.Indices, hi)
	return i0, i1
}

// searchIdx returns the first position whose id is >= target.
func searchIdx(ids []int32, target int32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Range sets view to the encoded rows [i0, i1) of e, aliasing e's storage:
// no bytes are copied, so a chunk view is free. The view is read-only and
// valid only until the next *Into call on e.
func (e *Encoded) Range(i0, i1 int, view *Encoded) {
	per := payloadBytesPerRow(e.Scheme, e.Width)
	view.Scheme = e.Scheme
	view.Width = e.Width
	view.Indices = e.Indices[i0:i1]
	view.Scales = e.Scales[i0:i1]
	view.Bits = e.Bits[i0*per : i1*per]
}

// AppendRangeTo appends a standalone Marshal-layout frame holding only the
// encoded rows [i0, i1) to dst and returns the extended slice — the
// per-chunk wire frame of the compressed reduce-scatter hops (DESIGN.md
// §13). A frame produced here round-trips through UnmarshalInto like any
// full Marshal frame. Like AppendTo, growth is amortized: the collective
// stages through a reused scratch slice, so steady-state calls stay within
// capacity.
func (e *Encoded) AppendRangeTo(dst []byte, i0, i1 int) []byte {
	per := payloadBytesPerRow(e.Scheme, e.Width)
	return appendFrame(dst, e.Scheme, e.Width, e.Indices[i0:i1], e.Scales[i0:i1], e.Bits[i0*per:i1*per])
}
