package model

import "kgedist/internal/tensor"

// Scratch is a per-worker bundle of the six Width()-long rows every scoring
// and gradient sweep needs: thread-local snapshots of the head, relation
// and tail embeddings (H, R, T) and the matching gradient accumulators
// (GH, GR, GT). Hot loops — serve sweeps, evaluation — allocate one Scratch
// per worker up front and reuse it for every triple, keeping the inner loop
// allocation-free.
//
// A Scratch is exclusively owned by one goroutine; nothing in it may be
// shared or retained by a callee. All six slices are valid for the life of
// the Scratch.
type Scratch struct {
	H, R, T    []float32 // embedding row snapshots, Width floats each
	GH, GR, GT []float32 // gradient accumulators, Width floats each
}

// NewScratch returns a Scratch for rows of the given width (floats per
// row), all slices zeroed.
func NewScratch(width int) *Scratch {
	if width <= 0 {
		panic("model: non-positive scratch width")
	}
	// One backing allocation, six views: keeps a worker's whole scratch on
	// as few cache lines as possible.
	backing := make([]float32, 6*width)
	return &Scratch{
		H:  backing[0*width : 1*width],
		R:  backing[1*width : 2*width],
		T:  backing[2*width : 3*width],
		GH: backing[3*width : 4*width],
		GR: backing[4*width : 5*width],
		GT: backing[5*width : 6*width],
	}
}

// Width returns the row width the Scratch was built for.
func (s *Scratch) Width() int { return len(s.H) }

// ZeroGrads clears the three gradient accumulators, leaving the embedding
// snapshots untouched. Call it before each AccumulateScoreGradRows group.
func (s *Scratch) ZeroGrads() {
	tensor.Zero(s.GH)
	tensor.Zero(s.GR)
	tensor.Zero(s.GT)
}

// Score loads the triple's rows from p into the snapshot slices and scores
// them.
func (s *Scratch) Score(m Model, p *Params, h, r, t int32) float32 {
	copy(s.H, p.Entity.Row(int(h)))
	copy(s.R, p.Relation.Row(int(r)))
	copy(s.T, p.Entity.Row(int(t)))
	return m.ScoreRows(s.H, s.R, s.T)
}
