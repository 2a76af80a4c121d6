package model

import (
	"kgedist/internal/kg"
	"kgedist/internal/tensor"
)

// Batch scores many triples in one call: Add gathers each triple's three
// embedding rows, Score scores them all. ComplEx goes through
// tensor.ComplExScoreTriples, one triple per AVX2 lane where the build and
// CPU have it; every other model through one ScoreRows call per triple.
// Either way each score is bit-for-bit ScoreRows. A Batch reuses its
// buffers, so once they have grown it does not allocate.
type Batch struct {
	h, r, t [][]float32
	out     []float32
}

// Reset empties the batch and keeps its buffers.
func (b *Batch) Reset() { b.h, b.r, b.t = b.h[:0], b.r[:0], b.t[:0] }

// Add appends tr, its rows resolved through rows. The rows are read when
// Score runs, so they must not change in between.
func (b *Batch) Add(rows Rows, tr kg.Triple) {
	b.h = append(b.h, rows.EntityRow(tr.H))
	b.r = append(b.r, rows.RelationRow(tr.R))
	b.t = append(b.t, rows.EntityRow(tr.T))
}

// Score returns m's score of every triple added since the last Reset, in
// the order added. The slice is the batch's own and is overwritten by the
// next Score.
func (b *Batch) Score(m Model) []float32 {
	n := len(b.h)
	if cap(b.out) < n {
		b.out = make([]float32, n, 2*n)
	}
	out := b.out[:n]
	if c, ok := m.(*ComplEx); ok {
		tensor.ComplExScoreTriples(c.dim, b.h, b.r, b.t, out)
		return out
	}
	for i := range out {
		out[i] = m.ScoreRows(b.h[i], b.r[i], b.t[i])
	}
	return out
}

// ScoreTriples is Reset, Add of every triple, then Score.
func (b *Batch) ScoreTriples(m Model, rows Rows, triples []kg.Triple) []float32 {
	b.Reset()
	for _, tr := range triples {
		b.Add(rows, tr)
	}
	return b.Score(m)
}
