// Package grad implements the paper's gradient pipeline: sparse per-row
// gradient accumulation, random selection of gradient vectors (§4.2), 1-bit
// and 2-bit gradient quantization with wire encoding (§4.3), and the
// error-feedback residual extension discussed in the related work (§2).
// On top of the static schemes sits the adaptive compression controller
// (Controller, Level, Merger): per-epoch gradient statistics drive a
// monotone compression ladder, and encoded frames reduce in the compressed
// domain inside the collectives — the model, decision rule and wire format
// are specified in DESIGN.md §13.
//
// # Buffer ownership
//
// The hot-path types recycle their internal storage (see DESIGN.md §10):
// SparseGrad keeps its rows in fixed-size chunks behind an id→slot table and
// an occupancy bitmap, so a Clear/Row/Indices batch cycle is allocation-free
// after warm-up and ascending-id iteration needs neither a map nor a sort.
// The price is aliasing discipline: slices returned by Row, Get and ForEach
// are views into the accumulator, valid until that row is dropped or the
// accumulator is cleared, and must never be retained across batches or sent
// to another goroutine. Flatten is the one deliberate exception — it returns
// fresh allocations precisely because its output is handed to collectives
// and retained by every rank.
package grad

import (
	"math/bits"

	"kgedist/internal/tensor"
)

// chunkRows is the number of rows per storage chunk. Small enough that a
// short-lived accumulator touching a handful of rows stays cheap, large
// enough that chunk allocation vanishes next to the row work.
const chunkRows = 64

// SparseGrad accumulates gradient rows of a single embedding matrix, keyed
// by row id. Only rows touched by the current batch are materialized — the
// object that the all-gather path communicates and the all-reduce path
// scatters into a dense buffer.
//
// Row ids are non-negative and dense in [0, rows) of the matrix, so the
// store is a flat id→slot table grown on demand, not a hash map; the rows
// themselves live in chunks that are never reallocated, so a slice returned
// for one id stays valid while other ids are materialized or dropped (the
// contract AccumulateScoreGrad's three live rows rely on; DESIGN.md §10).
//
// A SparseGrad is not safe for concurrent use; each training worker owns
// its own. Cleared and dropped rows are recycled internally, so reusing one
// accumulator across batches (Clear, then refill) allocates nothing once
// the row working set has been seen.
type SparseGrad struct {
	width  int
	n      int         // materialized rows
	slot   []int32     // id -> 1+slot of its row, 0 when absent
	occ    []uint64    // occupancy bitmap over ids: the ascending iteration order
	chunks [][]float32 // chunkRows rows each; a chunk never moves once allocated
	used   int32       // slots handed out since the last Clear
	free   []int32     // slots released by Drop, reused before used grows
	idx    []int32     // Indices scratch
	norms  []float32   // NormStats scratch, parallel to idx
}

// NewSparseGrad returns an empty accumulator for rows of the given width
// (floats per row).
func NewSparseGrad(width int) *SparseGrad {
	if width <= 0 {
		panic("grad: non-positive width")
	}
	return &SparseGrad{width: width}
}

// Width returns the row width in floats.
func (g *SparseGrad) Width() int { return g.width }

// Len returns the number of materialized rows.
func (g *SparseGrad) Len() int { return g.n }

// at returns the storage of slot s.
func (g *SparseGrad) at(s int32) []float32 {
	off := int(s%chunkRows) * g.width
	return g.chunks[s/chunkRows][off : off+g.width : off+g.width]
}

// Row returns the gradient row for id, materializing a zero row on first
// touch (from recycled storage when possible). The slice aliases the
// accumulator's storage: it is valid until id is dropped or the accumulator
// is cleared — materializing or dropping other ids never moves it — and must
// not be retained beyond that.
func (g *SparseGrad) Row(id int32) []float32 {
	if int(id) < len(g.slot) {
		if s := g.slot[id]; s != 0 {
			return g.at(s - 1)
		}
	}
	return g.materialize(id)
}

// materialize binds id to a free slot and returns its zeroed row.
func (g *SparseGrad) materialize(id int32) []float32 {
	if int(id) >= len(g.slot) {
		n := (max(int(id)+1, 2*len(g.slot)) + 63) &^ 63
		g.slot = append(g.slot, make([]int32, n-len(g.slot))...)
		g.occ = append(g.occ, make([]uint64, n/64-len(g.occ))...)
	}
	s := g.used
	if n := len(g.free); n > 0 {
		s = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		if int(s) == chunkRows*len(g.chunks) {
			g.chunks = append(g.chunks, make([]float32, chunkRows*g.width))
		}
		g.used++
	}
	g.slot[id] = s + 1
	g.occ[id>>6] |= 1 << (uint(id) & 63)
	g.n++
	row := g.at(s)
	tensor.Zero(row)
	return row
}

// Get returns the row for id without materializing it. The slice follows
// the same aliasing rule as Row.
func (g *SparseGrad) Get(id int32) ([]float32, bool) {
	if uint(id) >= uint(len(g.slot)) || g.slot[id] == 0 {
		return nil, false
	}
	return g.at(g.slot[id] - 1), true
}

// Drop removes a row (used by the selection strategies), recycling its
// storage. Any slice previously returned for id becomes invalid; slices for
// other ids are unaffected.
func (g *SparseGrad) Drop(id int32) {
	if uint(id) >= uint(len(g.slot)) || g.slot[id] == 0 {
		return
	}
	g.free = append(g.free, g.slot[id]-1)
	g.slot[id] = 0
	g.occ[id>>6] &^= 1 << (uint(id) & 63)
	g.n--
}

// Clear removes all rows, retaining the table and the row storage for
// reuse. Every slice previously returned by Row/Get is invalidated.
func (g *SparseGrad) Clear() {
	for w, word := range g.occ {
		for ; word != 0; word &= word - 1 {
			g.slot[w<<6|bits.TrailingZeros64(word)] = 0
		}
		g.occ[w] = 0
	}
	g.free = g.free[:0]
	g.used = 0
	g.n = 0
}

// Indices returns the materialized row ids in ascending order. The slice is
// a snapshot in accumulator-owned scratch: the next Indices or NormStats
// call overwrites it, and it must not be modified or retained. Callers that
// need a stable copy must append it into their own storage.
func (g *SparseGrad) Indices() []int32 {
	g.idx = g.idx[:0]
	for w, word := range g.occ {
		for ; word != 0; word &= word - 1 {
			g.idx = append(g.idx, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return g.idx
}

// ForEach calls f for every materialized row in ascending id order. f may
// mutate row values in place but must not add or drop rows of g.
func (g *SparseGrad) ForEach(f func(id int32, row []float32)) {
	for w, word := range g.occ {
		for ; word != 0; word &= word - 1 {
			id := int32(w<<6 | bits.TrailingZeros64(word))
			f(id, g.at(g.slot[id]-1))
		}
	}
}

// Flatten returns sorted indices and the concatenated row values in the
// same order — the payload of the sparse all-gather exchange. Both slices
// are freshly allocated on every call: the caller may hand them to a
// collective, where every rank retains them, so they are deliberately NOT
// recycled storage (see the package comment on ownership).
func (g *SparseGrad) Flatten() ([]int32, []float32) {
	idx := append([]int32(nil), g.Indices()...)
	flat := make([]float32, len(idx)*g.width)
	for i, id := range idx {
		copy(flat[i*g.width:(i+1)*g.width], g.at(g.slot[id]-1))
	}
	return idx, flat
}

// AddFlat accumulates flattened rows (as produced by Flatten) into g. The
// input slices are only read.
func (g *SparseGrad) AddFlat(idx []int32, flat []float32) {
	if len(flat) != len(idx)*g.width {
		panic("grad: AddFlat size mismatch")
	}
	for i, id := range idx {
		tensor.Add(flat[i*g.width:(i+1)*g.width], g.Row(id))
	}
}

// ScatterDense writes the rows into a dense matrix-shaped buffer of
// rows*width floats (zeroing it first) — the payload of the dense
// all-reduce exchange. buf is caller-owned scratch; g is only read.
func (g *SparseGrad) ScatterDense(buf []float32) {
	tensor.Zero(buf)
	g.ForEach(func(id int32, row []float32) {
		copy(buf[int(id)*g.width:(int(id)+1)*g.width], row)
	})
}

// AccumulateDense adds a dense matrix-shaped buffer's non-zero rows into g.
// buf is only read.
func (g *SparseGrad) AccumulateDense(buf []float32) {
	for off := 0; off+g.width <= len(buf); off += g.width {
		row := buf[off : off+g.width]
		if !tensor.IsZero(row) {
			tensor.Add(row, g.Row(int32(off/g.width)))
		}
	}
}

// NormStats computes the 2-norm of every row: norms[k] belongs to row
// Indices()[k] and is tensor.Nrm2 of that row. The mean norm — the
// threshold constant C of the paper's random-selection strategy — is summed
// in that ascending-id order, so it is a pure function of the gradient.
// norms is accumulator-owned scratch, overwritten by the next NormStats
// call. The rows go to tensor.Nrm2Rows chunkRows at a time, gathered on the
// stack.
func (g *SparseGrad) NormStats() (mean float32, norms []float32) {
	ids := g.Indices()
	if cap(g.norms) < len(ids) {
		g.norms = make([]float32, len(ids))
	}
	norms = g.norms[:len(ids)]
	if len(ids) == 0 {
		return 0, norms
	}
	var rows [chunkRows][]float32
	for lo := 0; lo < len(ids); lo += chunkRows {
		chunk := ids[lo:min(lo+chunkRows, len(ids))]
		for k, id := range chunk {
			rows[k] = g.at(g.slot[id] - 1)
		}
		tensor.Nrm2Rows(rows[:len(chunk)], norms[lo:lo+len(chunk)])
	}
	var sum float64
	for _, n := range norms {
		sum += float64(n)
	}
	return float32(sum / float64(len(ids))), norms
}

// PayloadBytes returns the wire size in bytes of the uncompressed sparse
// exchange: 4 bytes per index plus 4 bytes per value.
func (g *SparseGrad) PayloadBytes() int {
	return 4*g.n + 4*g.n*g.width
}
