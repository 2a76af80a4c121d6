package model

// Block (1-vs-N) scoring: one (fixed entity, relation) pair against a
// contiguous slab of candidate rows — the shape of an exact predict sweep
// and of link-prediction evaluation. Every kernel here is bit-for-bit
// ScoreRows: each candidate row keeps ScoreRows' own summation order and
// expression shape, so no ranking, golden or cached answer can move. The
// speed comes from what float32 rounding leaves free: a sum never crosses
// SIMD lanes. TransE's and ComplEx's AVX2 kernels (internal/tensor) give
// each candidate row its own lane and add its terms in k order, which is the
// same sum; a lane-per-k dot product would reorder it and change low-order
// bits. DistMult stays scalar: on the tail side q = h*r, the first product
// Dot3 rounds, is computed once per group of rows, and four independent rows
// share one inner loop so their serial add chains overlap. RotatE, TransH
// and SimplE score one ScoreRows call per row.

import "kgedist/internal/tensor"

// Side names the triple slot a block of candidate rows fills.
type Side uint8

const (
	// Head candidates replace the head; the fixed row is the tail.
	Head Side = iota
	// Tail candidates replace the tail; the fixed row is the head.
	Tail
)

// BlockScorer is implemented by every model New constructs.
type BlockScorer interface {
	// ScoreBlock writes out[i] = the score of slab row i in the side slot
	// against the fixed entity row and the relation row; slab holds
	// len(out) rows of Width() floats. The result is bit-identical to one
	// ScoreRows call per row.
	ScoreBlock(side Side, fixed, rel, slab, out []float32)
}

// scoreBlockRows is ScoreBlock as one ScoreRows call per row: the whole
// kernel for models without a specialised one, and what the specialised
// kernels hand the rows their interleaved loop left over.
//
//kgelint:hotpath
func scoreBlockRows(m Model, side Side, fixed, rel, slab, out []float32) {
	w := m.Width()
	for i := range out {
		row := slab[i*w : (i+1)*w]
		if side == Tail {
			out[i] = m.ScoreRows(fixed, rel, row)
		} else {
			out[i] = m.ScoreRows(row, rel, fixed)
		}
	}
}

// ScoreBlock implements BlockScorer.
func (m *RotatE) ScoreBlock(side Side, fixed, rel, slab, out []float32) {
	scoreBlockRows(m, side, fixed, rel, slab, out)
}

// ScoreBlock implements BlockScorer.
func (m *TransH) ScoreBlock(side Side, fixed, rel, slab, out []float32) {
	scoreBlockRows(m, side, fixed, rel, slab, out)
}

// ScoreBlock implements BlockScorer.
func (m *SimplE) ScoreBlock(side Side, fixed, rel, slab, out []float32) {
	scoreBlockRows(m, side, fixed, rel, slab, out)
}

// ScoreBlock implements BlockScorer through tensor.TransEScoreTails and
// tensor.TransEScoreHeads: AVX2 with one candidate row per lane where the
// build and CPU have it, else four rows per inner loop in Go. Every row keeps
// ScoreRows' float64 sum in k order; on the tail side q = h + r is the first
// sum ScoreRows rounds, so it is shared by the whole block.
//
//kgelint:hotpath
func (m *TransE) ScoreBlock(side Side, fixed, rel, slab, out []float32) {
	d := m.dim
	if side == Tail {
		tensor.TransEScoreTails(fixed[:d], rel[:d], slab, out)
	} else {
		tensor.TransEScoreHeads(rel[:d], fixed[:d], slab, out)
	}
}

// ScoreBlock implements BlockScorer: four rows per inner loop; on the tail
// side q = h*r is the first product Dot3 rounds, so it is shared.
//
//kgelint:hotpath
func (m *DistMult) ScoreBlock(side Side, fixed, rel, slab, out []float32) {
	d := m.dim
	fixed, rel = fixed[:d], rel[:d]
	i := 0
	for ; i+4 <= len(out); i += 4 {
		c := slab[i*d : (i+4)*d]
		c0, c1, c2, c3 := c[:d], c[d:][:d], c[2*d:][:d], c[3*d:][:d]
		var s0, s1, s2, s3 float32
		if side == Tail {
			for k, hv := range fixed {
				q := hv * rel[k]
				s0 += q * c0[k]
				s1 += q * c1[k]
				s2 += q * c2[k]
				s3 += q * c3[k]
			}
		} else {
			for k, tv := range fixed {
				rv := rel[k]
				s0 += c0[k] * rv * tv
				s1 += c1[k] * rv * tv
				s2 += c2[k] * rv * tv
				s3 += c3[k] * rv * tv
			}
		}
		o := out[i : i+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	scoreBlockRows(m, side, fixed, rel, slab[i*d:], out[i:])
}

// complexBlockChunk is how many candidate rows ComplEx.ScoreBlock hands
// tensor.ComplExScoreTriples per call: the gathered views live on the stack.
const complexBlockChunk = 32

// ScoreBlock implements BlockScorer through tensor.ComplExScoreTriples, the
// kernel the trainer's gathered batches use: each chunk of candidate rows
// becomes a chunk of triples whose fixed entity row and relation row repeat
// in every lane.
//
//kgelint:hotpath
func (m *ComplEx) ScoreBlock(side Side, fixed, rel, slab, out []float32) {
	w := 2 * m.dim
	var fix, rels, cands [complexBlockChunk][]float32
	for j := range fix {
		fix[j], rels[j] = fixed[:w], rel[:w]
	}
	h, t := fix[:], cands[:]
	if side == Head {
		h, t = t, h
	}
	for lo := 0; lo < len(out); lo += complexBlockChunk {
		n := min(complexBlockChunk, len(out)-lo)
		for j := range n {
			cands[j] = slab[(lo+j)*w:][:w]
		}
		tensor.ComplExScoreTriples(m.dim, h[:n], rels[:n], t[:n], out[lo:lo+n])
	}
}
