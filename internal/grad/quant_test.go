package grad

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"kgedist/internal/xrand"
)

func randGrad(rng *xrand.RNG, rows, width int) *SparseGrad {
	g := NewSparseGrad(width)
	for i := 0; i < rows; i++ {
		row := g.Row(int32(i * 3)) // non-contiguous ids
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
	}
	return g
}

func TestOneBitMaxRoundTrip(t *testing.T) {
	t.Parallel()
	rng := xrand.New(1)
	g := randGrad(rng, 10, 16)
	e := Quantize(g, OneBitMax, nil)
	dst := NewSparseGrad(16)
	Dequantize(e, dst)
	g.ForEach(func(id int32, row []float32) {
		dec, ok := dst.Get(id)
		if !ok {
			t.Fatalf("row %d missing after round trip", id)
		}
		max := float32(0)
		for _, v := range row {
			if a := float32(math.Abs(float64(v))); a > max {
				max = a
			}
		}
		for i, v := range row {
			// Sign preserved (zero maps to +scale by convention).
			if v > 0 && dec[i] <= 0 || v < 0 && dec[i] >= 0 {
				t.Fatalf("sign flipped at row %d col %d: %v -> %v", id, i, v, dec[i])
			}
			// Magnitude equals the row max.
			if math.Abs(math.Abs(float64(dec[i]))-float64(max)) > 1e-6 {
				t.Fatalf("magnitude %v != max %v", dec[i], max)
			}
		}
	})
}

func TestOneBitVariantsScales(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(4)
	copy(g.Row(0), []float32{-4, -2, 1, 3})
	check := func(s Scheme, want float32) {
		t.Helper()
		e := Quantize(g, s, nil)
		if math.Abs(float64(e.Scales[0]-want)) > 1e-6 {
			t.Fatalf("%v scale = %v, want %v", s, e.Scales[0], want)
		}
	}
	check(OneBitMax, 4)
	check(OneBitAvg, (4+2+1+3)/4.0)
}

func TestTwoBitTernaryProperties(t *testing.T) {
	t.Parallel()
	rng := xrand.New(3)
	g := randGrad(rng, 20, 32)
	e := Quantize(g, TwoBitTernary, rng)
	dst := NewSparseGrad(32)
	Dequantize(e, dst)
	g.ForEach(func(id int32, row []float32) {
		dec, _ := dst.Get(id)
		mean := float32(0)
		for _, v := range row {
			mean += float32(math.Abs(float64(v)))
		}
		mean /= float32(len(row))
		for i, v := range row {
			d := dec[i]
			// Ternary: value is 0 or +-mean.
			if d != 0 && math.Abs(math.Abs(float64(d))-float64(mean)) > 1e-6 {
				t.Fatalf("non-ternary value %v (mean %v)", d, mean)
			}
			// Non-zero decoded values preserve the sign.
			if d > 0 && v < 0 || d < 0 && v > 0 {
				t.Fatalf("ternary sign flip: %v -> %v", v, d)
			}
			// Values with |v| >= mean are never zeroed.
			if math.Abs(float64(v)) >= float64(mean) && d == 0 {
				t.Fatalf("large value %v zeroed (mean %v)", v, mean)
			}
		}
	})
}

func TestTwoBitTernaryUnbiasedExpectation(t *testing.T) {
	t.Parallel()
	// E[q_i] = sign(v) * mean * min(1,|v|/mean) = v for |v| <= mean.
	rng := xrand.New(5)
	g := NewSparseGrad(2)
	copy(g.Row(0), []float32{0.5, 1.5}) // mean = 1.0
	const trials = 20000
	var sum0, sum1 float64
	for i := 0; i < trials; i++ {
		e := Quantize(g, TwoBitTernary, rng)
		dst := NewSparseGrad(2)
		Dequantize(e, dst)
		dec, _ := dst.Get(0)
		sum0 += float64(dec[0])
		sum1 += float64(dec[1])
	}
	if math.Abs(sum0/trials-0.5) > 0.02 {
		t.Fatalf("E[q0] = %v, want 0.5", sum0/trials)
	}
	// |v| > mean saturates at mean.
	if math.Abs(sum1/trials-1.0) > 0.02 {
		t.Fatalf("E[q1] = %v, want 1.0 (saturated)", sum1/trials)
	}
}

func TestNoQuantRoundTripExact(t *testing.T) {
	t.Parallel()
	rng := xrand.New(7)
	g := randGrad(rng, 8, 10)
	e := Quantize(g, NoQuant, nil)
	dst := NewSparseGrad(10)
	Dequantize(e, dst)
	g.ForEach(func(id int32, row []float32) {
		dec, _ := dst.Get(id)
		for i := range row {
			if row[i] != dec[i] {
				t.Fatalf("NoQuant not exact at %d/%d", id, i)
			}
		}
	})
}

func TestWireBytesCompression(t *testing.T) {
	t.Parallel()
	rng := xrand.New(9)
	g := randGrad(rng, 50, 64)
	full := Quantize(g, NoQuant, nil).WireBytes()
	oneBit := Quantize(g, OneBitMax, nil).WireBytes()
	twoBit := Quantize(g, TwoBitTernary, rng).WireBytes()
	// 1-bit payload should be dramatically smaller; with 64-wide rows the
	// index+scale overhead still leaves >10x compression.
	if float64(full)/float64(oneBit) < 10 {
		t.Fatalf("1-bit compression only %vx (%d vs %d)", float64(full)/float64(oneBit), full, oneBit)
	}
	if oneBit >= twoBit {
		t.Fatalf("1-bit (%d) not smaller than 2-bit (%d)", oneBit, twoBit)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	t.Parallel()
	rng := xrand.New(11)
	for _, s := range []Scheme{NoQuant, OneBitMax, OneBitAvg, TwoBitTernary} {
		g := randGrad(rng, 6, 9) // odd width exercises bit padding
		e := Quantize(g, s, rng)
		buf := e.Marshal()
		got := new(Encoded)
		if err := UnmarshalInto(got, buf); err != nil {
			t.Fatalf("%v: UnmarshalInto: %v", s, err)
		}
		if got.Scheme != e.Scheme || got.Width != e.Width {
			t.Fatalf("%v: header mismatch", s)
		}
		if len(got.Indices) != len(e.Indices) {
			t.Fatalf("%v: indices differ", s)
		}
		for i := range e.Indices {
			if got.Indices[i] != e.Indices[i] || got.Scales[i] != e.Scales[i] {
				t.Fatalf("%v: row %d metadata differs", s, i)
			}
		}
		for i := range e.Bits {
			if got.Bits[i] != e.Bits[i] {
				t.Fatalf("%v: payload differs at byte %d", s, i)
			}
		}
	}
}

// frame assembles a wire frame by hand: the 9-byte header, then body.
func frame(s Scheme, width, nrows uint32, body ...byte) []byte {
	buf := []byte{byte(s)}
	buf = binary.LittleEndian.AppendUint32(buf, width)
	buf = binary.LittleEndian.AppendUint32(buf, nrows)
	return append(buf, body...)
}

// oneBitRow is the scale and payload of one 1-bit width-8 row.
var oneBitRow = []byte{0, 0, 0x80, 0x3f, 0xa5}

func TestUnmarshalErrors(t *testing.T) {
	t.Parallel()
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	if err := UnmarshalInto(new(Encoded), frame(OneBitMax, 8, 1, cat([]byte{7}, oneBitRow)...)); err != nil {
		t.Fatalf("well-formed hand frame rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"nil buffer", nil},
		{"short header", make([]byte, 5)},
		// Scheme 0, width 2^31-2, 2^31 rows: the row count would size a
		// 2^31-entry index slice, and the old layout's size arithmetic
		// 9 + 8n + n*4*width wrapped to exactly 9, the frame's length.
		{"overflowing header", overflowFrame},
		{"unknown scheme", frame(3, 8, 1, cat([]byte{7}, oneBitRow)...)}, // a retired 1-bit variant's code
		{"zero width", frame(OneBitMax, 0, 1, cat([]byte{7}, oneBitRow)...)},
		{"rows past the body", frame(OneBitMax, 8, 7, cat([]byte{7}, oneBitRow)...)},
		{"truncated varint", frame(OneBitMax, 8, 1, 0x80)},
		{"overlong varint", frame(OneBitMax, 8, 1, cat([]byte{0x87, 0x00}, oneBitRow)...)},
		{"varint overflows 64 bits", frame(OneBitMax, 8, 1, cat(bytes.Repeat([]byte{0xff}, 9), []byte{0x02}, oneBitRow)...)},
		// Gap 2^31 - 1 is id MaxInt32 itself; one more row passes it.
		{"id past MaxInt32", frame(OneBitMax, 8, 2, cat([]byte{0xff, 0xff, 0xff, 0xff, 0x07, 0x00}, oneBitRow, oneBitRow)...)},
		{"truncated payload", frame(OneBitMax, 8, 1, cat([]byte{7}, oneBitRow[:4])...)},
		{"trailing byte", frame(OneBitMax, 8, 1, cat([]byte{7}, oneBitRow, []byte{0})...)},
		{"NoQuant frame carrying a scale", frame(NoQuant, 1, 1, 7, 0, 0, 0, 0, 0, 0, 0x80, 0x3f)},
	} {
		if err := UnmarshalInto(new(Encoded), tc.buf); err == nil {
			t.Errorf("%s: frame %x accepted", tc.name, tc.buf)
		}
	}
	if err := UnmarshalInto(new(Encoded), frame(OneBitMax, 8, 1, cat([]byte{0xff, 0xff, 0xff, 0xff, 0x07}, oneBitRow)...)); err != nil {
		t.Errorf("id MaxInt32 rejected: %v", err)
	}
}

// overflowFrame is a 9-byte header (scheme 0, width 2^31-2, 2^31 rows) whose
// claimed row count far exceeds its zero-byte body.
var overflowFrame = []byte{0, 0xFE, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0x80}

// A 1-bit width-64 frame over n dense ids is the header plus, per row, a
// one-byte id gap, a 4-byte scale and 8 bytes of signs.
func TestWireBytesDenseOneBitExact(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 127, 128, 3246} {
		g := NewSparseGrad(64)
		for id := 0; id < n; id++ {
			g.Row(int32(id))[0] = 1
		}
		e := Quantize(g, OneBitMax, nil)
		if want := 9 + n + 4*n + 8*n; e.WireBytes() != want || len(e.Marshal()) != want {
			t.Errorf("n=%d: WireBytes %d, Marshal %d bytes, want %d", n, e.WireBytes(), len(e.Marshal()), want)
		}
	}
}

// FuzzUnmarshalInto feeds arbitrary bytes to the peer-frame parser: it never
// panics, a decoded row count never exceeds what the buffer can hold (at
// least one id byte, the scale and the payload per row after the 9-byte
// header), NoQuant rows decode with zero scales, and an accepted frame
// re-encodes through AppendTo byte for byte.
func FuzzUnmarshalInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		e := new(Encoded)
		if err := UnmarshalInto(e, buf); err != nil {
			return
		}
		n := len(e.Indices)
		per := payloadBytesPerRow(e.Scheme, e.Width)
		if n*(1+scaleBytesPerRow(e.Scheme)+per) > len(buf)-9 {
			t.Fatalf("decoded %d rows of %d payload bytes from %d bytes", n, per, len(buf))
		}
		if len(e.Scales) != n || len(e.Bits) != n*per {
			t.Fatalf("%d rows decoded with %d scales and %d payload bytes", n, len(e.Scales), len(e.Bits))
		}
		for _, sc := range e.Scales {
			if e.Scheme == NoQuant && math.Float32bits(sc) != 0 {
				t.Fatalf("NoQuant row decoded with scale %v", sc)
			}
		}
		if got := e.AppendTo(nil); !bytes.Equal(got, buf) {
			t.Fatalf("accepted frame re-encodes to %x, input %x", got, buf)
		}
		if e.WireBytes() != len(buf) {
			t.Fatalf("WireBytes %d for a %d-byte frame", e.WireBytes(), len(buf))
		}
	})
}

func TestSchemeStringsAndBits(t *testing.T) {
	t.Parallel()
	if NoQuant.BitsPerValue() != 32 || OneBitMax.BitsPerValue() != 1 || TwoBitTernary.BitsPerValue() != 2 {
		t.Fatal("BitsPerValue wrong")
	}
	names := map[Scheme]string{
		NoQuant: "none", OneBitMax: "1bit-max", OneBitAvg: "1bit-avg",
		TwoBitTernary: "2bit-ternary", Scheme(200): "unknown",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestEmptyGradientQuantize(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(8)
	e := Quantize(g, OneBitMax, nil)
	if len(e.Indices) != 0 || e.WireBytes() != 9 {
		t.Fatalf("empty encode: %d rows, %d bytes", len(e.Indices), e.WireBytes())
	}
	got := new(Encoded)
	if err := UnmarshalInto(got, e.Marshal()); err != nil || len(got.Indices) != 0 {
		t.Fatalf("empty round trip: %v", err)
	}
}

// Property: for the whole 1-bit family, |decoded| is constant per row and
// signs match the input; Marshal/UnmarshalInto is the identity.
func TestQuickOneBitFamily(t *testing.T) {
	t.Parallel()
	schemes := []Scheme{OneBitMax, OneBitAvg}
	f := func(seed uint64, widthRaw uint8, schemeIdx uint8) bool {
		width := int(widthRaw%31) + 1
		s := schemes[int(schemeIdx)%len(schemes)]
		rng := xrand.New(seed)
		g := randGrad(rng, 5, width)
		e := Quantize(g, s, nil)
		e2 := new(Encoded)
		if err := UnmarshalInto(e2, e.Marshal()); err != nil {
			return false
		}
		dst := NewSparseGrad(width)
		Dequantize(e2, dst)
		ok := true
		g.ForEach(func(id int32, row []float32) {
			dec, found := dst.Get(id)
			if !found {
				ok = false
				return
			}
			for i, v := range row {
				if v > 0 && dec[i] < 0 || v < 0 && dec[i] > 0 {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// spreadIDs re-spaces e's row ids with gaps drawn below maxGap, so id
// deltas of every varint length appear without materializing the rows.
func spreadIDs(e *Encoded, rng *xrand.RNG, maxGap int) *Encoded {
	id := int32(-1)
	for i := range e.Indices {
		id += 1 + int32(rng.Intn(maxGap))
		e.Indices[i] = id
	}
	return e
}

// Property: WireBytes is exactly the length of the Marshal frame for every
// scheme, whatever the ids and including widths that are not multiples of 8,
// and the frame decodes back to the same ids.
func TestQuickWireBytesFormula(t *testing.T) {
	t.Parallel()
	schemes := []Scheme{NoQuant, OneBitMax, OneBitAvg, TwoBitTernary}
	f := func(seed uint64, rowsRaw, widthRaw, si, gapRaw uint8) bool {
		rng := xrand.New(seed)
		s := schemes[int(si)%len(schemes)]
		maxGap := 1 << (gapRaw % 22)
		e := spreadIDs(Quantize(randGrad(rng, int(rowsRaw%40), int(widthRaw%33)+1), s, rng), rng, maxGap)
		buf, back := e.Marshal(), new(Encoded)
		return e.WireBytes() == len(buf) && UnmarshalInto(back, buf) == nil && slices.Equal(back.Indices, e.Indices)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: for ids below 2^28 a frame is never larger than the fixed
// layout it replaced, which sent a 4-byte id and a 4-byte scale per row.
func TestQuickFrameNoLargerThanFixedLayout(t *testing.T) {
	t.Parallel()
	schemes := []Scheme{NoQuant, OneBitMax, OneBitAvg, TwoBitTernary}
	f := func(seed uint64, rowsRaw, widthRaw, si, gapRaw uint8) bool {
		rng := xrand.New(seed)
		rows := int(rowsRaw % 16)
		maxGap := (1 << 28) / 16 >> (gapRaw % 24)
		e := spreadIDs(Quantize(randGrad(rng, rows, int(widthRaw%33)+1), schemes[int(si)%len(schemes)], rng), rng, maxGap)
		return len(e.Marshal()) <= 9+8*rows+len(e.Bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: dequantized 1-bit payloads reconstruct rows whose sign pattern
// matches the packed bits regardless of row content.
func TestQuickOneBitIdempotentEncode(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, widthRaw uint8) bool {
		width := int(widthRaw%16) + 1
		rng := xrand.New(seed)
		g := NewSparseGrad(width)
		row := g.Row(0)
		for i := range row {
			row[i] = float32(rng.NormFloat64())
		}
		e1 := Quantize(g, OneBitMax, nil)
		// Quantizing the dequantized gradient is a fixed point: signs and
		// scale survive a second round.
		dec := NewSparseGrad(width)
		Dequantize(e1, dec)
		e2 := Quantize(dec, OneBitMax, nil)
		if len(e1.Bits) != len(e2.Bits) {
			return false
		}
		for i := range e1.Bits {
			if e1.Bits[i] != e2.Bits[i] {
				return false
			}
		}
		return e1.Scales[0] == e2.Scales[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
