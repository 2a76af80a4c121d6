package grad

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"kgedist/internal/xrand"
)

// gradWithIDs materializes one normal-random row per id.
func gradWithIDs(width int, rng *xrand.RNG, ids ...int32) *SparseGrad {
	g := NewSparseGrad(width)
	for _, id := range ids {
		row := g.Row(id)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
	}
	return g
}

// decodeAll dequantizes e into a fresh dense map for comparison.
func decodeAll(e *Encoded) *SparseGrad {
	dst := NewSparseGrad(e.Width)
	Dequantize(e, dst)
	return dst
}

// Rows unique to one input must pass through verbatim: same index, scale and
// packed payload bytes, in ascending id order.
func TestMergeDisjointPassThrough(t *testing.T) {
	t.Parallel()
	for _, s := range []Scheme{NoQuant, OneBitMax, TwoBitTernary} {
		rng := xrand.New(5)
		a := Quantize(gradWithIDs(8, rng, 0, 4, 10), s, rng)
		b := Quantize(gradWithIDs(8, rng, 2, 6, 12), s, rng)
		var m Merger
		out := m.MergeInto(a, b, nil)
		wantIDs := []int32{0, 2, 4, 6, 10, 12}
		if len(out.Indices) != len(wantIDs) {
			t.Fatalf("%v: %d merged rows, want %d", s, len(out.Indices), len(wantIDs))
		}
		per := payloadBytesPerRow(s, 8)
		for i, id := range out.Indices {
			if id != wantIDs[i] {
				t.Fatalf("%v: merged id[%d] = %d, want %d", s, i, id, wantIDs[i])
			}
			src, r := a, 0
			if id == 2 || id == 6 || id == 12 {
				src = b
			}
			for r = range src.Indices {
				if src.Indices[r] == id {
					break
				}
			}
			if out.Scales[i] != src.Scales[r] {
				t.Fatalf("%v: row %d scale changed in pass-through", s, id)
			}
			got := out.Bits[i*per : (i+1)*per]
			want := src.Bits[r*per : (r+1)*per]
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%v: row %d payload byte %d changed in pass-through", s, id, k)
				}
			}
		}
	}
}

// Under NoQuant the overlap fallback is exact: decode(merge(a,b)) equals
// decode(a) + decode(b) bit for bit.
func TestMergeNoQuantOverlapExact(t *testing.T) {
	t.Parallel()
	rng := xrand.New(7)
	ga := gradWithIDs(12, rng, 1, 3, 5, 9)
	gb := gradWithIDs(12, rng, 3, 5, 7)
	a := Quantize(ga, NoQuant, nil)
	b := Quantize(gb, NoQuant, nil)
	var m Merger
	got := decodeAll(m.MergeInto(a, b, nil))

	want := NewSparseGrad(12)
	add := func(g *SparseGrad) {
		g.ForEach(func(id int32, row []float32) {
			dst := want.Row(id)
			for i, v := range row {
				dst[i] += v
			}
		})
	}
	add(ga)
	add(gb)
	want.ForEach(func(id int32, row []float32) {
		dec, ok := got.Get(id)
		if !ok {
			t.Fatalf("row %d missing from merge", id)
		}
		for i := range row {
			if row[i] != dec[i] {
				t.Fatalf("row %d col %d: merge %v != sum %v", id, i, dec[i], row[i])
			}
		}
	})
}

// Under a lossy scheme the overlap fallback must equal re-quantizing the
// float sum of the decoded rows — the documented decode-reduce semantics.
func TestMergeLossyOverlapRequantizes(t *testing.T) {
	t.Parallel()
	rng := xrand.New(9)
	ga := gradWithIDs(16, rng, 4)
	gb := gradWithIDs(16, rng, 4)
	a := Quantize(ga, OneBitMax, nil)
	b := Quantize(gb, OneBitMax, nil)
	var m Merger
	out := m.MergeInto(a, b, nil)
	if len(out.Indices) != 1 || out.Indices[0] != 4 {
		t.Fatalf("merged ids = %v, want [4]", out.Indices)
	}

	// Reference: decode both, sum, quantize the sum.
	sum := NewSparseGrad(16)
	row := sum.Row(4)
	da, db := decodeAll(a), decodeAll(b)
	ra, _ := da.Get(4)
	rb, _ := db.Get(4)
	for i := range row {
		row[i] = ra[i] + rb[i]
	}
	want := Quantize(sum, OneBitMax, nil)
	if out.Scales[0] != want.Scales[0] {
		t.Fatalf("merged scale %v, want %v", out.Scales[0], want.Scales[0])
	}
	for i := range want.Bits {
		if out.Bits[i] != want.Bits[i] {
			t.Fatalf("merged payload byte %d differs from re-quantized sum", i)
		}
	}
}

// TwoBitTernary re-encoding consumes the rng; the merge must be replayable —
// same inputs and seed, same output — since the chan and TCP fabrics replay
// the identical hop sequence.
func TestMergeDeterministic(t *testing.T) {
	t.Parallel()
	run := func() *Encoded {
		rng := xrand.New(13)
		a := Quantize(gradWithIDs(8, rng, 0, 2, 4), TwoBitTernary, rng)
		b := Quantize(gradWithIDs(8, rng, 2, 4, 6), TwoBitTernary, rng)
		var m Merger
		out := m.MergeInto(a, b, xrand.New(99))
		cp := &Encoded{}
		if err := UnmarshalInto(cp, out.Marshal()); err != nil {
			t.Fatal(err)
		}
		return cp
	}
	x, y := run(), run()
	if string(x.Marshal()) != string(y.Marshal()) {
		t.Fatal("merge not deterministic for a fixed seed")
	}
}

func TestMergeIncompatiblePanics(t *testing.T) {
	t.Parallel()
	rng := xrand.New(1)
	a := Quantize(gradWithIDs(8, rng, 0), OneBitMax, nil)
	b := Quantize(gradWithIDs(8, rng, 1), NoQuant, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("scheme mismatch did not panic")
		}
	}()
	var m Merger
	m.MergeInto(a, b, nil)
}

// RowRange + Range + AppendRangeTo slice a frame into chunk sub-frames that
// round-trip through the wire format — the ring's staging path.
func TestEncodedRangeRoundTrip(t *testing.T) {
	t.Parallel()
	for _, s := range []Scheme{NoQuant, OneBitMax, TwoBitTernary} {
		rng := xrand.New(17)
		e := Quantize(gradWithIDs(8, rng, 1, 3, 5, 7, 11, 13), s, rng)

		// Id window [3, 12) covers rows 3,5,7,11.
		i0, i1 := e.RowRange(3, 12)
		if i1-i0 != 4 || e.Indices[i0] != 3 || e.Indices[i1-1] != 11 {
			t.Fatalf("%v: RowRange(3,12) = [%d,%d)", s, i0, i1)
		}
		// Empty windows: before the first row, after the last, between rows.
		if lo, hi := e.RowRange(0, 1); lo != hi {
			t.Fatalf("%v: RowRange(0,1) not empty", s)
		}
		if lo, hi := e.RowRange(14, 100); lo != hi {
			t.Fatalf("%v: RowRange(14,100) not empty", s)
		}
		if lo, hi := e.RowRange(4, 5); lo != hi {
			t.Fatalf("%v: RowRange(4,5) not empty", s)
		}

		var view Encoded
		e.Range(i0, i1, &view)
		wire := e.AppendRangeTo(nil, i0, i1)
		var back Encoded
		if err := UnmarshalInto(&back, wire); err != nil {
			t.Fatalf("%v: AppendRangeTo frame does not unmarshal: %v", s, err)
		}
		if string(back.Marshal()) != string(view.Marshal()) {
			t.Fatalf("%v: staged wire frame differs from the Range view", s)
		}
	}
}

// The k-way merge the compressed all-reduce's owner runs, the trimmed frame
// it sends back and the receiver's rebuild are allocation-free once warm.
func TestMergeKWayAllocFree(t *testing.T) {
	rng := xrand.New(29)
	frames := make([]*Encoded, 4)
	for k := range frames {
		frames[k] = Quantize(gradWithIDs(16, rng, int32(k), 4, 5+int32(k), 9), TwoBitTernary, rng)
	}
	var m Merger
	mrng := xrand.New(31)
	m.Merge(frames, mrng)
	if allocs := testing.AllocsPerRun(50, func() { m.Merge(frames, mrng) }); allocs != 0 {
		t.Errorf("Merge allocates %.1f allocs/op, want 0", allocs)
	}
	wire := m.AppendTrimmedTo(nil, 1)
	if allocs := testing.AllocsPerRun(50, func() { wire = m.AppendTrimmedTo(wire[:0], 1) }); allocs != 0 {
		t.Errorf("AppendTrimmedTo allocates %.1f allocs/op, want 0", allocs)
	}
	var trim, re Encoded
	if err := UnmarshalInto(&trim, wire); err != nil {
		t.Fatal(err)
	}
	RebuildInto(&re, &trim, frames[1])
	if allocs := testing.AllocsPerRun(50, func() { RebuildInto(&re, &trim, frames[1]) }); allocs != 0 {
		t.Errorf("RebuildInto allocates %.1f allocs/op, want 0", allocs)
	}
}

// mergeInput decodes a fuzz input into 1–8 frames of one scheme and width
// over ids [0, 24): byte 0 picks the scheme, byte 1 the width (1–9), byte 2
// the frame count, then three bytes per frame are its id bitmask. The rest
// is a pool of little-endian float32 bit patterns the row values cycle
// through (so NaN, ±Inf and −0 reach the codec), or small integers when the
// pool holds no whole word.
func mergeInput(data []byte) []*Encoded {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	s := []Scheme{NoQuant, OneBitMax, OneBitAvg, TwoBitTernary}[at(0)%4]
	width := 1 + int(at(1)%9)
	k := 1 + int(at(2)%8)
	pool := data[min(len(data), 3+3*k):]
	v := 0
	value := func() float32 {
		defer func() { v++ }()
		if len(pool) < 4 {
			return float32(v%7 - 3)
		}
		i := 4 * v % (len(pool) - len(pool)%4)
		return math.Float32frombits(binary.LittleEndian.Uint32(pool[i:]))
	}
	rng := xrand.New(3)
	frames := make([]*Encoded, k)
	for f := range frames {
		mask := uint32(at(3+3*f)) | uint32(at(4+3*f))<<8 | uint32(at(5+3*f))<<16
		g := NewSparseGrad(width)
		for id := int32(0); id < 24; id++ {
			if mask>>id&1 != 0 {
				row := g.Row(id)
				for j := range row {
					row[j] = value()
				}
			}
		}
		frames[f] = Quantize(g, s, rng)
	}
	return frames
}

// FuzzMergeFrames checks the k-way merge differentially: against an oracle
// that walks the id union, copies single-source rows verbatim and decodes,
// sums (from zero, in frame order) and encodes every other row once; against
// the recorded only-source of every row; and, for every source d, that the
// frame trimmed of d's only-source rows rebuilds from d's own frame to the
// merged frame byte for byte.
func FuzzMergeFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := mergeInput(data)
		s, w := frames[0].Scheme, frames[0].Width
		per := payloadBytesPerRow(s, w)
		var m Merger
		got := m.Merge(frames, xrand.New(11)).Marshal()

		want := &Encoded{Scheme: s, Width: w}
		var only []int32
		orng := xrand.New(11)
		for id := int32(0); id < 24; id++ {
			var holders []int
			rows := make([]int, len(frames))
			for k, fr := range frames {
				for r, x := range fr.Indices {
					if x == id {
						holders, rows[k] = append(holders, k), r
					}
				}
			}
			switch len(holders) {
			case 0:
				continue
			case 1:
				appendRow(want, frames[holders[0]], rows[holders[0]], per)
				only = append(only, int32(holders[0]))
				continue
			}
			sum := make([]float32, w)
			for _, k := range holders {
				r := rows[k]
				decodeRowAccum(s, frames[k].Scales[r], frames[k].Bits[r*per:(r+1)*per], sum)
			}
			buf := make([]byte, per)
			want.Indices = append(want.Indices, id)
			want.Scales = append(want.Scales, encodeRow(s, sum, buf, orng))
			want.Bits = append(want.Bits, buf...)
			only = append(only, -1)
		}
		if !bytes.Equal(got, want.Marshal()) {
			t.Fatalf("merge %x, oracle %x", got, want.Marshal())
		}
		if len(m.only) != len(only) {
			t.Fatalf("%d only-sources recorded for %d rows", len(m.only), len(only))
		}
		for i := range only {
			if m.only[i] != only[i] {
				t.Fatalf("row %d: only-source %d, want %d", m.out.Indices[i], m.only[i], only[i])
			}
		}
		var trim, re Encoded
		for d := range frames {
			if err := UnmarshalInto(&trim, m.AppendTrimmedTo(nil, d)); err != nil {
				t.Fatalf("trimmed frame for %d does not decode: %v", d, err)
			}
			RebuildInto(&re, &trim, frames[d])
			if !bytes.Equal(re.Marshal(), got) {
				t.Fatalf("rebuild from %d: %x, merged %x", d, re.Marshal(), got)
			}
		}
	})
}

// The merge loop must be allocation-free once the Merger's scratch is warm.
func TestMergeAllocFree(t *testing.T) {
	rng := xrand.New(23)
	a := Quantize(gradWithIDs(16, rng, 0, 2, 4, 6, 8), OneBitMax, nil)
	b := Quantize(gradWithIDs(16, rng, 1, 2, 5, 6, 9), OneBitMax, nil)
	var m Merger
	m.MergeInto(a, b, nil) // warm the output frame and sum scratch
	allocs := testing.AllocsPerRun(50, func() {
		m.MergeInto(a, b, nil)
	})
	if allocs != 0 {
		t.Errorf("MergeInto allocates %.1f allocs/op, want 0", allocs)
	}
}
