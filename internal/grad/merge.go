package grad

import "kgedist/internal/xrand"

// Compressed-domain reduction for the multi-hop collectives (DESIGN.md §13,
// after DynamiQ; PAPERS.md): the ring reduce-scatter carries grad.Encoded
// frames hop to hop instead of dense float32 chunks, and each hop merges the
// incoming frame with the local chunk while staying compressed wherever the
// scheme permits:
//
//   - A row present in only one frame passes through verbatim — index, scale
//     and packed payload are copied, never decoded. In the sparse
//     gradient-row regime most rows are unique to one rank, so most of every
//     hop is a pure compressed-domain copy.
//   - A row present in both frames cannot be summed bit-wise under a lossy
//     scheme (two sign rows with different scales have no packed sum), so
//     exactly these rows fall back to decode-reduce: both payloads are
//     dequantized, summed in float32, and re-encoded with the frame's
//     scheme. Under NoQuant the fallback is exact; under the lossy schemes
//     it re-quantizes the sum, the per-hop error DynamiQ accepts (and the
//     sender-side error feedback cannot see — DESIGN.md §13 lists this as
//     the scheme's known deviation).
//
// The merge is deterministic: rows are walked in ascending id order and the
// rng (consumed only by TwoBitTernary re-encoding) is a dedicated stream, so
// a rank's hop sequence replays identically on the channel and TCP fabrics.

// Merger merges sorted Encoded frames and owns every piece of scratch the
// compressed ring pipeline needs, so the steady-state hop loop is
// allocation-free once warm. One per exchanged matrix per rank; not safe for
// concurrent use.
type Merger struct {
	// In is the decode scratch the collective unmarshals incoming hop
	// frames into. Owned by the collective between calls.
	In Encoded
	// Wire is the marshal scratch outgoing hop frames are staged through
	// before being copied into a pooled wire buffer. Owned by the
	// collective between calls.
	Wire []byte
	// View is the zero-copy alias of the local chunk the collective merges
	// against (see Encoded.Range).
	View Encoded

	out Encoded   // merged frame, reused across MergeInto calls
	sum []float32 // overlap decode-reduce scratch, one row wide
}

// Out returns the frame the last MergeInto produced. It aliases
// Merger-owned storage: valid until the next MergeInto call.
func (m *Merger) Out() *Encoded { return &m.out }

// MergeInto reduces frames a and b (same scheme and width, ascending
// indices) into the Merger's output frame and returns it. Rows unique to
// one input are copied still-compressed; overlapping rows are
// decoded, summed and re-encoded (consuming rng for TwoBitTernary only).
// Neither input may alias the Merger's output — in the ring pipeline a is
// the freshly decoded In frame and b the local chunk View, so this holds by
// construction.
//
//kgelint:hotpath
func (m *Merger) MergeInto(a, b *Encoded, rng *xrand.RNG) *Encoded {
	if a.Scheme != b.Scheme || a.Width != b.Width {
		panic("grad: merge of incompatible encoded frames")
	}
	w := a.Width
	per := payloadBytesPerRow(a.Scheme, w)
	if cap(m.sum) < w {
		m.sum = make([]float32, w)
	}

	out := &m.out
	out.Scheme = a.Scheme
	out.Width = w
	out.Indices = out.Indices[:0]
	out.Scales = out.Scales[:0]
	out.Bits = out.Bits[:0]

	i, j := 0, 0
	for i < len(a.Indices) || j < len(b.Indices) {
		switch {
		case j >= len(b.Indices) || (i < len(a.Indices) && a.Indices[i] < b.Indices[j]):
			appendRow(out, a, i, per)
			i++
		case i >= len(a.Indices) || b.Indices[j] < a.Indices[i]:
			appendRow(out, b, j, per)
			j++
		default: // same row id in both: decode-reduce fallback
			sum := m.sum[:w]
			for k := range sum {
				sum[k] = 0
			}
			decodeRowAccum(a.Scheme, a.Scales[i], a.Bits[i*per:(i+1)*per], sum)
			decodeRowAccum(b.Scheme, b.Scales[j], b.Bits[j*per:(j+1)*per], sum)
			out.Indices = append(out.Indices, a.Indices[i])
			// Extend Bits by one row; encodeRow overwrites every byte.
			for k := 0; k < per; k++ {
				out.Bits = append(out.Bits, 0)
			}
			buf := out.Bits[len(out.Bits)-per:]
			out.Scales = append(out.Scales, encodeRow(a.Scheme, sum, buf, rng))
			i++
			j++
		}
	}
	return out
}

// appendRow copies row r of src onto the end of out verbatim — the
// compressed-domain pass-through.
func appendRow(out, src *Encoded, r, per int) {
	out.Indices = append(out.Indices, src.Indices[r])
	out.Scales = append(out.Scales, src.Scales[r])
	out.Bits = append(out.Bits, src.Bits[r*per:(r+1)*per]...)
}
