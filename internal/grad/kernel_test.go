package grad

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"kgedist/internal/xrand"
)

// The branchy codec loops the bit-pattern kernels in quant.go replaced, kept
// verbatim as the definition the kernels must reproduce bit for bit.

func refScale(s Scheme, row []float32) float32 {
	var absMax float32
	var absSum float64
	for _, v := range row {
		a := v
		if a < 0 {
			a = -a
		}
		if a > absMax {
			absMax = a
		}
		absSum += float64(a)
	}
	switch s {
	case OneBitMax:
		return absMax
	case OneBitAvg:
		if len(row) == 0 {
			return 0
		}
		return float32(absSum / float64(len(row)))
	}
	panic("refScale: non-1-bit scheme")
}

func refEncodeRow(s Scheme, row []float32, buf []byte, rng *xrand.RNG) float32 {
	switch s {
	case NoQuant:
		for i, v := range row {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		return 0
	case TwoBitTernary:
		for i := range buf {
			buf[i] = 0
		}
		mean := refScale(OneBitAvg, row)
		if mean > 0 {
			for i, v := range row {
				var code byte
				a := v
				if a < 0 {
					a = -a
				}
				if rng.Bernoulli(float64(a) / float64(mean)) {
					if v > 0 {
						code = 1
					} else if v < 0 {
						code = 2
					}
				}
				buf[i/4] |= code << uint((i%4)*2)
			}
		}
		return mean
	default:
		for i := range buf {
			buf[i] = 0
		}
		sc := refScale(s, row)
		for i, v := range row {
			if v >= 0 {
				buf[i/8] |= 1 << uint(i%8)
			}
		}
		return sc
	}
}

func refDecodeRowAccum(s Scheme, sc float32, buf []byte, row []float32) {
	switch s {
	case NoQuant:
		for i := range row {
			row[i] += math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	case TwoBitTernary:
		for i := range row {
			switch (buf[i/4] >> uint((i%4)*2)) & 3 {
			case 1:
				row[i] += sc
			case 2:
				row[i] -= sc
			}
		}
	default:
		for i := range row {
			if buf[i/8]&(1<<uint(i%8)) != 0 {
				row[i] += sc
			} else {
				row[i] -= sc
			}
		}
	}
}

var allSchemes = []Scheme{NoQuant, OneBitMax, OneBitAvg, TwoBitTernary}

// specials are the values where a bit-pattern predicate and a float
// comparison could disagree: signed zeros, denormals, infinities, and quiet
// and signalling NaNs of both signs.
var specials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, // denormals
	0x00800000, 0x80800000, // smallest normals
	0x7F7FFFFF, 0xFF7FFFFF, // largest finite
	0x7F800000, 0xFF800000, // ±Inf
	0x7FC00000, 0xFFC00000, 0x7FC00123, 0xFFA00001, 0x7F800001, // NaNs
}

func isNaNBits(b uint32) bool { return b&^signBit > infBits }

// kernelRows builds the row shapes of the test: plain gradients, one sign
// only, all zero (the ternary mean == 0 path), and gradients salted with
// specials, with and without NaN.
func kernelRows(width int, rng *xrand.RNG) [][]float32 {
	normal := func() []float32 {
		r := make([]float32, width)
		for i := range r {
			r[i] = float32(rng.NormFloat64())
		}
		return r
	}
	rows := [][]float32{normal(), normal(), make([]float32, width)}
	pos, neg := normal(), normal()
	for i := range pos {
		pos[i] = float32(math.Abs(float64(pos[i])))
		neg[i] = -float32(math.Abs(float64(neg[i])))
	}
	rows = append(rows, pos, neg)
	for _, withNaN := range []bool{false, true} {
		for rep := 0; rep < 6; rep++ {
			r := normal()
			for i := range r {
				if rng.Intn(3) != 0 {
					continue
				}
				b := specials[rng.Intn(len(specials))]
				if isNaNBits(b) && !withNaN {
					continue
				}
				r[i] = math.Float32frombits(b)
			}
			rows = append(rows, r)
		}
	}
	// Every special once, in order, so none depends on the draw.
	all := make([]float32, width)
	for i := range all {
		all[i] = math.Float32frombits(specials[i%len(specials)])
	}
	return append(rows, all)
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkEncode encodes row under s through encodeRow and through the
// reference, and requires the same scale, payload and rng state.
func checkEncode(t *testing.T, what string, s Scheme, row []float32) {
	t.Helper()
	per := payloadBytesPerRow(s, len(row))
	want, got := make([]byte, per), make([]byte, per)
	for i := range got {
		got[i] = 0xA5 // encodeRow must overwrite every byte
	}
	rngW, rngG := xrand.New(99), xrand.New(99)
	scW := refEncodeRow(s, row, want, rngW)
	scG := encodeRow(s, row, absMean(row), got, rngG)
	// NaN scales compare as a class: which payload a NaN sum carries is the
	// compiler's choice (race codegen differs), and NaN payload bits are not
	// part of the codec's contract.
	bw, bg := math.Float32bits(scW), math.Float32bits(scG)
	if bw != bg && !(isNaNBits(bw) && isNaNBits(bg)) {
		t.Errorf("%s: scale %08x, reference %08x", what, bg, bw)
	}
	if string(want) != string(got) {
		t.Errorf("%s: bits %x, reference %x", what, got, want)
	}
	if *rngW != *rngG {
		t.Errorf("%s: rng state diverged from the reference", what)
	}
}

// The kernels must produce the reference's Bits, Scales and rng state for
// every scheme, on widths either side of the 4- and 8-value packing
// boundaries, with every special value in the rows.
func TestEncodeKernelsMatchReference(t *testing.T) {
	t.Parallel()
	for _, s := range allSchemes {
		for _, w := range []int{1, 7, 8, 9, 63, 64, 65} {
			for ri, row := range kernelRows(w, xrand.New(uint64(w)*31+uint64(s))) {
				checkEncode(t, fmt.Sprintf("%v w=%d row %d", s, w, ri), s, row)
			}
		}
	}
}

// checkDecode adds the frame (s, sc, buf) into a copy of dst through
// decodeRowAccum and through the reference, and requires the same bits. It
// skips the two cases TestDecodeKernelsMatchReference describes, and
// quiets signalling NaNs in dst before a ternary decode.
func checkDecode(t *testing.T, what string, s Scheme, sc float32, buf []byte, dst []float32) {
	t.Helper()
	if isNaNBits(math.Float32bits(sc)) && hasNaN(dst) {
		return
	}
	if s == NoQuant && hasNaN(dst) && hasNaN(wireFloats(buf)) {
		return
	}
	want := append([]float32(nil), dst...)
	if s == TwoBitTernary {
		for i, v := range want {
			if b := math.Float32bits(v); isNaNBits(b) {
				want[i] = math.Float32frombits(b | 1<<22) // quiet bit
			}
		}
	}
	got := append([]float32(nil), want...)
	refDecodeRowAccum(s, sc, buf, want)
	decodeRowAccum(s, sc, buf, got)
	if !sameBits(want, got) {
		t.Fatalf("%s: decoded %x, reference %x", what, floatBits(got), floatBits(want))
	}
}

// Decoding must add exactly what the reference adds, into rows that already
// hold −0, denormals, infinities and NaN, for payloads straight from the
// encoder and for arbitrary wire bytes (ternary code 3 included) under
// arbitrary scales. Two cases are left out. A NaN scale meeting a NaN already
// in the row: which payload survives NaN+NaN depends on operand order, which
// the compiler is free to choose for the reference's `+=` as well
// (TestOneBitDecodeKeepsRowNaN and TestTernaryDecodeKeepsRowNaN pin what
// decodeRowAccum does). And a
// signalling NaN in a row under the ternary decode, whose −0 addend for code
// 0 would quiet it where the reference's skip does not: the rows the decoder
// adds into hold zeros and sums, and arithmetic never yields one.
func TestDecodeKernelsMatchReference(t *testing.T) {
	t.Parallel()
	for _, s := range allSchemes {
		for _, w := range []int{1, 7, 8, 9, 63, 64, 65} {
			rng := xrand.New(uint64(w)*77 + uint64(s))
			per := payloadBytesPerRow(s, w)
			type frame struct {
				sc  float32
				buf []byte
			}
			var frames []frame
			for _, row := range kernelRows(w, rng) {
				buf := make([]byte, per)
				frames = append(frames, frame{refEncodeRow(s, row, buf, rng), buf})
			}
			for _, b := range specials {
				buf := make([]byte, per)
				for i := range buf {
					buf[i] = byte(rng.Intn(256))
				}
				frames = append(frames, frame{math.Float32frombits(b), buf})
			}
			dsts := kernelRows(w, rng)
			negZero := make([]float32, w)
			for i := range negZero {
				negZero[i] = math.Float32frombits(signBit)
			}
			dsts = append(dsts, negZero)
			for fi, f := range frames {
				for di, dst := range dsts {
					checkDecode(t, fmt.Sprintf("%v w=%d frame %d dst %d", s, w, fi, di), s, f.sc, f.buf, dst)
				}
			}
		}
	}
}

func hasNaN(row []float32) bool {
	for _, v := range row {
		if isNaNBits(math.Float32bits(v)) {
			return true
		}
	}
	return false
}

func wireFloats(buf []byte) []float32 {
	out := make([]float32, len(buf)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}

func floatBits(row []float32) []uint32 {
	out := make([]uint32, len(row))
	for i, v := range row {
		out[i] = math.Float32bits(v)
	}
	return out
}

// classify is the one place the kernels read predicates off the bit
// pattern; pin it to the float comparisons on every special and a sweep.
func TestClassifyMatchesComparisons(t *testing.T) {
	t.Parallel()
	check := func(b uint32) {
		v := math.Float32frombits(b)
		neg, zero, nan := classify(b)
		b2u := func(c bool) uint32 {
			if c {
				return 1
			}
			return 0
		}
		if got, want := (neg^1)&^(zero|nan), b2u(v > 0); got != want {
			t.Fatalf("%08x: v > 0 is %d, want %d", b, got, want)
		}
		if got, want := neg&^(zero|nan), b2u(v < 0); got != want {
			t.Fatalf("%08x: v < 0 is %d, want %d", b, got, want)
		}
		if got, want := ((neg^1)|zero)&^nan, b2u(v >= 0); got != want {
			t.Fatalf("%08x: v >= 0 is %d, want %d", b, got, want)
		}
		a := v
		if a < 0 {
			a = -a
		}
		if absBits(b) != math.Float32bits(a) {
			t.Fatalf("%08x: absBits %08x, want %08x", b, absBits(b), math.Float32bits(a))
		}
	}
	for _, b := range specials {
		check(b)
	}
	for b := uint64(0); b < 1<<32; b += 65521 {
		check(uint32(b))
	}
}

// A NaN scale meeting a NaN row: the 1-bit decode keeps the row's payload,
// quieted, on every build, whether the value falls in an 8-lane block or in
// the tail.
func TestOneBitDecodeKeepsRowNaN(t *testing.T) {
	t.Parallel()
	const rowNaN = 0xFFA00321 // signalling, negative
	for _, s := range []Scheme{OneBitMax, OneBitAvg} {
		for _, sc := range []uint32{0x7FC00000, 0xFFC00077, 0x7F800001} {
			for _, w := range []int{1, 7, 8, 9, 33, 64} {
				row := make([]float32, w)
				for i := range row {
					row[i] = math.Float32frombits(rowNaN)
				}
				buf := make([]byte, payloadBytesPerRow(s, w))
				for i := range buf {
					buf[i] = 0x96
				}
				decodeRowAccum(s, math.Float32frombits(sc), buf, row)
				for i, v := range row {
					if got := math.Float32bits(v); got != rowNaN|1<<22 {
						t.Fatalf("%v scale %#08x w=%d: row[%d] = %#08x, want the row's NaN quieted, %#08x",
							s, sc, w, i, got, uint32(rowNaN|1<<22))
					}
				}
			}
		}
	}
}

// The same for the ternary decode: codes 1 and 2 add the NaN scale and
// codes 0 and 3 add −0, and every one keeps the row's payload, quieted, in
// the 4-value body and in the tail alike.
func TestTernaryDecodeKeepsRowNaN(t *testing.T) {
	t.Parallel()
	const rowNaN = 0x7FC00001
	for _, sc := range []uint32{0x7FC00002, 0xFFC00077, 0x7F800001} {
		for _, w := range []int{3, 4, 8, 9, 64} {
			row := make([]float32, w)
			for i := range row {
				row[i] = math.Float32frombits(rowNaN)
			}
			buf := make([]byte, payloadBytesPerRow(TwoBitTernary, w))
			for i := range buf {
				buf[i] = 0xE4 // codes 0, 1, 2, 3
			}
			decodeRowAccum(TwoBitTernary, math.Float32frombits(sc), buf, row)
			for i, v := range row {
				if got := math.Float32bits(v); got != rowNaN {
					t.Fatalf("scale %#08x w=%d: row[%d] = %#08x, want the row's NaN, %#08x", sc, w, i, got, uint32(rowNaN))
				}
			}
		}
	}
}

// fuzzWidths are FuzzOneBitRows' row widths: either side of the 8-value
// payload byte and of the 8-lane kernel block, and the training row of
// dimension 32 (64 floats).
var fuzzWidths = []int{1, 7, 8, 9, 31, 32, 33, 64, 100}

// FuzzOneBitRows holds the codec to the reference for every scheme. The
// decoded floats are repeated to fill two rows of one of fuzzWidths: the
// first is encoded, and the payload it encodes to is decoded under the
// fuzzed scale into the second.
func FuzzOneBitRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, width, scheme uint8, scale uint32) {
		w, s := fuzzWidths[int(width)%len(fuzzWidths)], allSchemes[int(scheme)%len(allSchemes)]
		vals := wireFloats(data)
		rows := make([]float32, 2*w)
		for i := range rows {
			if len(vals) > 0 {
				rows[i] = vals[i%len(vals)]
			}
		}
		row, dst := rows[:w], rows[w:]
		what := fmt.Sprintf("%v w=%d", s, w)
		checkEncode(t, what, s, row)
		buf := make([]byte, payloadBytesPerRow(s, w))
		refEncodeRow(s, row, buf, xrand.New(99))
		checkDecode(t, what, s, math.Float32frombits(scale), buf, dst)
	})
}

// QuantizeInto takes its means four rows at a time (absMean4) and, in a
// tail, one at a time; every row it encodes must still be the reference's,
// in id order from one rng, for every scheme and row widths 1–70.
func TestQuantizeIntoMatchesRowReference(t *testing.T) {
	t.Parallel()
	for _, s := range allSchemes {
		for w := 1; w <= 70; w++ {
			rng := xrand.New(uint64(w)*23 + uint64(s))
			g := NewSparseGrad(w)
			rows := kernelRows(w, rng)
			for k, row := range rows {
				copy(g.Row(int32(2*k)), row)
			}
			rngG, rngW := xrand.New(5), xrand.New(5)
			e := new(Encoded)
			QuantizeInto(e, g, s, rngG)
			per := payloadBytesPerRow(s, w)
			for k, row := range rows {
				want := make([]byte, per)
				sc := refEncodeRow(s, row, want, rngW)
				what := fmt.Sprintf("%v w=%d row %d", s, w, k)
				bw, bg := math.Float32bits(sc), math.Float32bits(e.Scales[k])
				if bw != bg && !(isNaNBits(bw) && isNaNBits(bg)) {
					t.Fatalf("%s: scale %08x, reference %08x", what, bg, bw)
				}
				if !bytes.Equal(e.Bits[k*per:(k+1)*per], want) {
					t.Fatalf("%s: payload differs from the reference", what)
				}
			}
			if *rngG != *rngW {
				t.Fatalf("%v w=%d: rng state diverged from the reference", s, w)
			}
		}
	}
}

// fillCyclic fills dst with vals repeated, or zeros when vals is empty.
func fillCyclic(dst, vals []float32) {
	for i := range dst {
		if len(vals) > 0 {
			dst[i] = vals[i%len(vals)]
		}
	}
}

// sameFloat reports whether a and b have the same bits, or are both NaN.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || isNaNBits(math.Float32bits(a)) && isNaNBits(math.Float32bits(b))
}

// FuzzFloatCodec holds the fp32 block codec to its per-element loops: the
// decoded floats, repeated to fill two rows of one of fuzzWidths, are
// encoded by putFloats and by putFloatsGo, and the payload is added into
// the second row by addFloats and by addFloatsGo. The payload starts offset
// bytes into its buffer, so an odd offset takes the alignment guard's
// fallback. The bytes must be equal and the sums bit-identical, except that
// a NaN meeting a NaN is compared as a class: which payload survives is the
// compiler's choice of operand order in the Go loop.
func FuzzFloatCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, width, offset uint8) {
		w := fuzzWidths[int(width)%len(fuzzWidths)]
		rows := make([]float32, 2*w)
		fillCyclic(rows, wireFloats(data))
		row, dst := rows[:w], rows[w:]
		off := int(offset % 8)
		got, want := make([]byte, off+4*w)[off:], make([]byte, 4*w)
		for i := range got {
			got[i] = 0xA5 // every byte must be overwritten
		}
		putFloats(got, row)
		putFloatsGo(want, row)
		if !bytes.Equal(got, want) {
			t.Fatalf("w=%d offset %d: encoded %x, per-element %x", w, off, got, want)
		}
		sumGot := append([]float32(nil), dst...)
		sumWant := append([]float32(nil), dst...)
		addFloats(got, sumGot)
		addFloatsGo(want, sumWant)
		for i := range sumGot {
			nanPair := isNaNBits(math.Float32bits(dst[i])) && isNaNBits(math.Float32bits(row[i]))
			if math.Float32bits(sumGot[i]) != math.Float32bits(sumWant[i]) && !(nanPair && sameFloat(sumGot[i], sumWant[i])) {
				t.Fatalf("w=%d offset %d: sum[%d] %#08x, per-element %#08x", w, off, i,
					math.Float32bits(sumGot[i]), math.Float32bits(sumWant[i]))
			}
		}
	})
}

// FuzzAbsMean4 holds the four-row mean to absMean: the decoded floats,
// repeated, fill four rows of width 0–70, and each of absMean4's means must
// have absMean's bits. A row holding two NaNs or more compares its NaN mean
// as a class, like the encoder's scale: which payload the sum keeps is the
// compiler's choice of operand order. With one NaN the mean is that NaN,
// its sign included.
func FuzzAbsMean4(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		w := int(width) % 71
		vals := make([]float32, 4*w)
		fillCyclic(vals, wireFloats(data))
		a, b, c, d := vals[:w], vals[w:2*w], vals[2*w:3*w], vals[3*w:]
		ma, mb, mc, md := absMean4(a, b, c, d)
		for k, m := range []float32{ma, mb, mc, md} {
			row := vals[k*w : (k+1)*w]
			want := absMean(row)
			nans := 0
			for _, v := range row {
				if isNaNBits(math.Float32bits(v)) {
					nans++
				}
			}
			if math.Float32bits(m) != math.Float32bits(want) && !(nans > 1 && sameFloat(m, want)) {
				t.Fatalf("w=%d row %d: mean %#08x, absMean %#08x", w, k, math.Float32bits(m), math.Float32bits(want))
			}
		}
	})
}
