package binpack

import (
	"fmt"

	"kgedist/internal/model"
)

// Query composition: the packed prefilter compares one query code against
// every entity code, so the fixed (entity, relation) pair of a completion
// query must first be folded into a single float row "q" in the entity
// embedding space. Each model family gets its own fold, derived from its
// ScoreRows form as a function of the candidate row:
//
//   - Dot family (complex, distmult): the score is linear in the
//     candidate row, score = <q, cand>. High score wants sign(q[d]) to
//     agree with the candidate's bit, so the query is binarized at zero
//     while candidates are binarized at the per-dimension mean (the mean
//     offset contributes a candidate-independent constant to the score).
//   - Distance family (transe): the score is a negated distance to a
//     target point q; close candidates share q's side of each threshold,
//     so the query is binarized at the index thresholds.

// queryKind selects the query-side binarization rule.
type queryKind int

const (
	kindDot  queryKind = iota // binarize query at zero
	kindDist                  // binarize query at the index thresholds
)

// composer folds a fixed (entity, relation) pair into a query row.
type composer struct {
	kind queryKind
	// tail folds fixed head h and relation r into q, for ranking tails.
	tail func(m model.Model, h, r, q []float32)
	// head folds fixed tail t and relation r into q, for ranking heads.
	head func(m model.Model, t, r, q []float32)
}

// composerFor returns the query composer for m, or an error for a model
// binpack has no fold for (a new model must add one here before it can be
// served in approx mode).
func composerFor(m model.Model) (composer, error) {
	switch m.Name() {
	case "complex":
		return composer{kind: kindDot, tail: complexTail, head: complexHead}, nil
	case "distmult":
		return composer{kind: kindDot, tail: distmultTail, head: distmultHead}, nil
	case "transe":
		return composer{kind: kindDist, tail: transeTail, head: transeHead}, nil
	}
	return composer{}, fmt.Errorf("binpack: no query composition for model %q", m.Name())
}

// ---- dot family ------------------------------------------------------------

// complex: score = sum_j Re(h_j r_j conj(t_j)). As a function of t this is
// <q, t> with q = h*r (complex product, [Re|Im] layout); as a function of
// h it is <q, h> with q = conj(r)*t.
func complexTail(m model.Model, h, r, q []float32) {
	d := m.Dim()
	hr, hi := h[:d], h[d:]
	rr, ri := r[:d], r[d:]
	for i := 0; i < d; i++ {
		q[i] = hr[i]*rr[i] - hi[i]*ri[i]
		q[d+i] = hi[i]*rr[i] + hr[i]*ri[i]
	}
}

func complexHead(m model.Model, t, r, q []float32) {
	d := m.Dim()
	tr, ti := t[:d], t[d:]
	rr, ri := r[:d], r[d:]
	for i := 0; i < d; i++ {
		q[i] = rr[i]*tr[i] + ri[i]*ti[i]
		q[d+i] = rr[i]*ti[i] - ri[i]*tr[i]
	}
}

// distmult: score = <h, r, t> — symmetric elementwise product either side.
func distmultTail(m model.Model, h, r, q []float32) {
	for i := range q {
		q[i] = h[i] * r[i]
	}
}

func distmultHead(m model.Model, t, r, q []float32) {
	for i := range q {
		q[i] = r[i] * t[i]
	}
}

// ---- distance family -------------------------------------------------------

// transe: score = -||h + r - t||^2, so tails cluster around q = h + r and
// heads around q = t - r.
func transeTail(m model.Model, h, r, q []float32) {
	for i := range q {
		q[i] = h[i] + r[i]
	}
}

func transeHead(m model.Model, t, r, q []float32) {
	for i := range q {
		q[i] = t[i] - r[i]
	}
}
