package grad

import (
	"encoding/binary"
	"math"
	"slices"

	"kgedist/internal/xrand"
)

// Compressed-domain reduction for the compressed all-reduce (DESIGN.md
// §13.5): each rank sends its slice of a row-range chunk straight to that
// chunk's owner, and the owner folds the P slices into one frame once,
// staying compressed wherever the scheme permits:
//
//   - A row present in only one slice passes through verbatim — index, scale
//     and packed payload are copied, never decoded. In the sparse
//     gradient-row regime most rows are unique to one rank, so most of every
//     chunk is a pure compressed-domain copy. A lossy re-encode is not
//     idempotent (the ternary scale is mean|x|, so a row holding zeros
//     shrinks), which is why a single-source row is never re-encoded.
//   - A row present in two or more slices cannot be summed bit-wise under a
//     lossy scheme (two sign rows with different scales have no packed sum),
//     so exactly these rows are decoded, summed in float32 from zero in the
//     order the slices are given, and re-encoded once with the frame's
//     scheme. Under NoQuant this is exact; under the lossy schemes it is the
//     one re-quantization DynamiQ's owner reduction accepts (PAPERS.md).
//
// The merge is deterministic: rows are walked in ascending id order, slices
// are folded in the caller's order, and the rng (consumed only by
// TwoBitTernary re-encoding) is a dedicated stream, so a rank's merges
// replay identically on the channel and TCP fabrics.
//
// The merge also records each output row's only source: the fold position
// of the one slice that held it, or −1 for a row merged from several. The
// compressed all-reduce's return phase leaves those rows out of the frame
// it sends back to their only source (AppendTrimmedTo), which already holds
// them verbatim, and the receiver puts them back from its own slice
// (RebuildInto) — the rebuilt frame equals the merged one byte for byte.

// Merger merges sorted Encoded frames and owns every piece of scratch the
// compressed all-reduce needs, so its steady state is allocation-free
// once warm. One per exchanged matrix per rank; not safe for concurrent use.
type Merger struct {
	// In is the decode scratch the collective unmarshals incoming frames
	// into, one per fold position (see Reserve). Owned by the collective
	// between calls.
	In []Encoded
	// Src is the fold order of the collective's Merge call: pointers into
	// In, or to View. Owned by the collective between calls.
	Src []*Encoded
	// Wire is the marshal scratch outgoing frames are staged through before
	// being copied into a pooled wire buffer. Owned by the collective
	// between calls.
	Wire []byte
	// View is the zero-copy alias of the local chunk the collective merges
	// (see Encoded.Range).
	View Encoded
	// Trim is the decode scratch of a trimmed frame before RebuildInto
	// completes it. Owned by the collective between calls.
	Trim Encoded

	out  Encoded   // merged frame, reused across Merge calls
	only []int32   // per output row: fold position of its only source, or −1
	sum  []float32 // overlap decode-reduce scratch, meanRows rows wide
	pend []int     // output positions of the summed rows awaiting re-encode
	pos  []int     // per-frame row cursor of Merge
}

// Reserve sizes In and Src to n fold positions, growing them only when n
// exceeds every earlier call's.
func (m *Merger) Reserve(n int) {
	if cap(m.In) < n {
		m.In = make([]Encoded, n)
		m.Src = make([]*Encoded, n)
	}
	m.In, m.Src = m.In[:n], m.Src[:n]
}

// Out returns the frame the last merge produced. It aliases Merger-owned
// storage: valid until the next Merge or MergeInto call.
func (m *Merger) Out() *Encoded { return &m.out }

// MergeInto reduces frames a and b: Merge over the fold order a, b.
func (m *Merger) MergeInto(a, b *Encoded, rng *xrand.RNG) *Encoded {
	two := [2]*Encoded{a, b}
	return m.Merge(two[:], rng)
}

// Merge reduces frames (at least one; same scheme and width, ascending
// indices) into the Merger's output frame and returns it. A row held by one
// frame is copied still-compressed and its only source recorded; a row held
// by several is decoded from each in frames order into a zeroed float32 sum
// and re-encoded once (consuming rng for TwoBitTernary only). No frame may
// alias the Merger's output.
func (m *Merger) Merge(frames []*Encoded, rng *xrand.RNG) *Encoded {
	s, w := frames[0].Scheme, frames[0].Width
	for _, f := range frames[1:] {
		if f.Scheme != s || f.Width != w {
			panic("grad: merge of incompatible encoded frames")
		}
	}
	per := payloadBytesPerRow(s, w)
	if cap(m.sum) < meanRows*w {
		m.sum = make([]float32, meanRows*w)
	}
	if cap(m.pend) < meanRows {
		m.pend = make([]int, 0, meanRows)
	}
	m.pend = m.pend[:0]
	if cap(m.pos) < len(frames) {
		m.pos = make([]int, len(frames))
	}
	pos := m.pos[:len(frames)]
	clear(pos)

	out := &m.out
	out.Scheme = s
	out.Width = w
	out.Indices = out.Indices[:0]
	out.Scales = out.Scales[:0]
	out.Bits = out.Bits[:0]
	m.only = m.only[:0]

	for {
		// The smallest id at any cursor, the first frame holding it, and how
		// many frames hold it.
		var id int32
		first, n := -1, 0
		for k, f := range frames {
			if pos[k] == len(f.Indices) {
				continue
			}
			switch h := f.Indices[pos[k]]; {
			case n == 0 || h < id:
				id, first, n = h, k, 1
			case h == id:
				n++
			}
		}
		if n == 0 {
			m.encodePending(rng)
			return out
		}
		if n == 1 {
			appendRow(out, frames[first], pos[first], per)
			m.only = append(m.only, int32(first))
			pos[first]++
			continue
		}
		j := len(m.pend)
		sum := m.sum[j*w : (j+1)*w]
		clear(sum)
		for k := first; k < len(frames); k++ {
			f, i := frames[k], pos[k]
			if i < len(f.Indices) && f.Indices[i] == id {
				decodeRowAccum(s, f.Scales[i], f.Bits[i*per:(i+1)*per], sum)
				pos[k]++
			}
		}
		// The row's scale and payload are placeholders until encodePending
		// overwrites them, every payload byte included.
		m.pend = append(m.pend, len(out.Indices))
		out.Indices = append(out.Indices, id)
		out.Scales = append(out.Scales, 0)
		out.Bits = slices.Grow(out.Bits, per)[:len(out.Bits)+per]
		m.only = append(m.only, -1)
		if len(m.pend) == meanRows {
			m.encodePending(rng)
		}
	}
}

// encodePending re-encodes the summed rows Merge holds into their output
// positions, in output order, so the rng is consumed as by an encode right
// after each sum: only the re-encodes draw, and no pass-through row does.
func (m *Merger) encodePending(rng *xrand.RNG) {
	out := &m.out
	s, w := out.Scheme, out.Width
	per := payloadBytesPerRow(s, w)
	var rows [meanRows][]float32
	var means [meanRows]float32
	for j := range m.pend {
		rows[j] = m.sum[j*w : (j+1)*w]
	}
	rowMeans(s, rows[:len(m.pend)], means[:])
	for j, r := range m.pend {
		out.Scales[r] = encodeRow(s, rows[j], means[j], out.Bits[r*per:(r+1)*per], rng)
	}
	m.pend = m.pend[:0]
}

// appendRow copies row r of src onto the end of out verbatim — the
// compressed-domain pass-through.
func appendRow(out, src *Encoded, r, per int) {
	out.Indices = append(out.Indices, src.Indices[r])
	out.Scales = append(out.Scales, src.Scales[r])
	out.Bits = append(out.Bits, src.Bits[r*per:(r+1)*per]...)
}

// AppendTrimmedTo appends to dst the Marshal frame of the last merge's
// output without the rows whose only source was fold position j, and
// returns the extended slice. Those rows passed through verbatim, so source
// j already holds exactly their bytes; RebuildInto restores them from its
// own slice. Growth is amortized like AppendRangeTo's: the collective
// stages through a reused scratch slice.
func (m *Merger) AppendTrimmedTo(dst []byte, j int) []byte {
	out := &m.out
	per := payloadBytesPerRow(out.Scheme, out.Width)
	skip := int32(j)
	n := 0
	for _, o := range m.only {
		if o != skip {
			n++
		}
	}
	dst = appendHeader(dst, out.Scheme, out.Width, n)
	prev := int32(-1)
	for i, id := range out.Indices {
		if m.only[i] != skip {
			dst = binary.AppendUvarint(dst, idGap(prev, id))
			prev = id
		}
	}
	if out.Scheme != NoQuant {
		for i, sc := range out.Scales {
			if m.only[i] != skip {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(sc))
			}
		}
	}
	for i := range out.Indices {
		if m.only[i] != skip {
			dst = append(dst, out.Bits[i*per:(i+1)*per]...)
		}
	}
	return dst
}

// RebuildInto sets dst to the merged frame that trimmed was cut from
// (Merger.AppendTrimmedTo): trimmed's rows plus every row of own, the
// receiver's slice of the same chunk, that trimmed lacks — a row of own
// missing from trimmed was own's alone, so the merge passed it through
// verbatim. A row in both is taken from trimmed. trimmed and own must share
// scheme and width and have ascending ids; dst must alias neither. dst's
// storage is reused, so a warm rebuild is allocation-free.
func RebuildInto(dst, trimmed, own *Encoded) {
	per := payloadBytesPerRow(trimmed.Scheme, trimmed.Width)
	dst.Scheme = trimmed.Scheme
	dst.Width = trimmed.Width
	dst.Indices = dst.Indices[:0]
	dst.Scales = dst.Scales[:0]
	dst.Bits = dst.Bits[:0]
	i, k := 0, 0
	for i < len(trimmed.Indices) || k < len(own.Indices) {
		switch {
		case k == len(own.Indices) || i < len(trimmed.Indices) && trimmed.Indices[i] < own.Indices[k]:
			appendRow(dst, trimmed, i, per)
			i++
		case i == len(trimmed.Indices) || own.Indices[k] < trimmed.Indices[i]:
			appendRow(dst, own, k, per)
			k++
		default: // in both: a merged row, which the owner sent
			appendRow(dst, trimmed, i, per)
			i++
			k++
		}
	}
}
