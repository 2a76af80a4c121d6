package binpack

import (
	"fmt"

	"kgedist/internal/eval"
	"kgedist/internal/model"
)

// Scratch holds the per-query working set of a two-stage search, reused
// across queries so the steady-state approx path allocates only its
// response. Not safe for concurrent use; each searching goroutine owns one.
type Scratch struct {
	q     []float32
	code  []uint64
	dists []int32 // one Hamming distance per entity
	hist  []int   // entity count per distance, [0, 64·words]
	cand  []int32 // stage-1 candidate ids, ascending
	accK  *eval.TopKAccumulator

	// Stage 2 gathers up to rescoreChunk unskipped candidates at a time:
	// their rows into slab, their ids into ids, their scores into scores.
	slab   []float32
	ids    [rescoreChunk]int32
	scores [rescoreChunk]float32
}

// rescoreChunk is how many candidate rows stage 2 gathers per ScoreBlock
// call: 64 rows of a dim-64 TransE table are a 16 KiB slab, L1-resident
// while it is scored, and every chunk after the first is scored under the
// floor the chunks before it raised.
const rescoreChunk = 64

// NewScratch returns an empty scratch; Search grows it on demand.
func NewScratch() *Scratch { return &Scratch{} }

func (sc *Scratch) ensure(width, words, rows, c, k int) {
	if cap(sc.q) < width {
		sc.q = make([]float32, width)
	}
	sc.q = sc.q[:width]
	if cap(sc.code) < words {
		sc.code = make([]uint64, words)
	}
	sc.code = sc.code[:words]
	if cap(sc.dists) < rows {
		sc.dists = make([]int32, rows)
	}
	sc.dists = sc.dists[:rows]
	if cap(sc.hist) < words*WordBits+1 {
		sc.hist = make([]int, words*WordBits+1)
	}
	sc.hist = sc.hist[:words*WordBits+1]
	if cap(sc.cand) < c {
		sc.cand = make([]int32, c)
	}
	sc.cand = sc.cand[:c]
	if cap(sc.slab) < rescoreChunk*width {
		sc.slab = make([]float32, rescoreChunk*width)
	}
	sc.slab = sc.slab[:rescoreChunk*width]
	if sc.accK == nil {
		sc.accK = eval.NewTopK(k)
	} else {
		sc.accK.Reset(k)
	}
}

// Search runs the two-stage approximate completion query: a packed
// XOR/popcount prefilter over every entity selects the c
// smallest-Hamming candidates (stage 1), whose exact model scores then
// rank the final top k (stage 2). Stage 2 gathers the candidates' rows,
// rescoreChunk at a time, into a Scratch-owned slab and scores each slab
// with the model's BlockScorer under the accumulator's current top-k
// floor, so TransE stops rows that can no longer enter.
//
// side is "head" or "tail" — the slot being completed. fixRow is the
// fixed entity's embedding row, relRow the relation's. entityRow(e) must
// return entity e's row. m must be a model.BlockScorer, as every model
// model.New constructs is. skip, when non-nil, drops candidates while
// they are gathered (filtered ranking); skipped candidates still consume
// stage-1 budget, so callers wanting k results through a dense filter
// should raise c. c is clamped to [k, Rows()].
//
// Invariants: the result is ranked by exact ScoreRows values with
// eval.TopKAccumulator tie-breaking (ties toward the lower entity id), so
// an approx ranking can only ever differ from the exact sweep in *which*
// candidates were considered — never in how considered candidates are
// ordered. A row ScoreBlock leaves inexact scored below a floor that only
// rises, so Offer rejects it exactly as it would the exact score. Stage 1
// breaks Hamming ties toward the lower entity id too, making the
// candidate set, and therefore the whole response, deterministic for a
// given index. candidates and rescored report the stage-1 slice size and
// how many of them were not skipped and so went through ScoreBlock.
func (ix *Index) Search(m model.Model, side string, fixRow, relRow []float32, entityRow func(e int) []float32,
	k, c int, skip func(e int32) bool, sc *Scratch) (res []eval.ScoredEntity, candidates, rescored int, err error) {
	if m.Name() != ix.name {
		return nil, 0, 0, fmt.Errorf("binpack: index built for model %s, searched with %s", ix.name, m.Name())
	}
	bs, ok := m.(model.BlockScorer)
	if !ok {
		return nil, 0, 0, fmt.Errorf("binpack: model %s has no block scorer", m.Name())
	}
	if side != "head" && side != "tail" {
		return nil, 0, 0, fmt.Errorf("binpack: side must be head or tail, got %q", side)
	}
	if k <= 0 {
		return nil, 0, 0, fmt.Errorf("binpack: non-positive k %d", k)
	}
	if ix.rows == 0 {
		return nil, 0, 0, nil
	}
	if c < k {
		c = k
	}
	if c > ix.rows {
		c = ix.rows
	}
	if k > ix.rows {
		k = ix.rows
	}
	sc.ensure(ix.width, ix.words, ix.rows, c, k)

	// Stage 1: compose and binarize the query, sweep the packed codes.
	if side == "tail" {
		ix.comp.tail(m, fixRow, relRow, sc.q)
	} else {
		ix.comp.head(m, fixRow, relRow, sc.q)
	}
	ix.packQueryInto(sc.q, sc.code)
	ix.prefilterInto(sc.code, sc.dists, sc.hist, sc.cand)
	candidates = c

	// Stage 2: gathered block rescore of the candidate slice.
	bside := model.Tail
	if side == "head" {
		bside = model.Head
	}
	w, n := ix.width, 0
	for i, e := range sc.cand {
		if skip == nil || !skip(e) {
			copy(sc.slab[n*w:(n+1)*w], entityRow(int(e)))
			sc.ids[n] = e
			n++
		}
		if n == rescoreChunk || (n > 0 && i == len(sc.cand)-1) {
			out := sc.scores[:n]
			bs.ScoreBlock(bside, fixRow, relRow, sc.slab[:n*w], out, sc.accK.Floor())
			for j, s := range out {
				sc.accK.Offer(sc.ids[j], s)
			}
			rescored += n
			n = 0
		}
	}
	return sc.accK.Results(), candidates, rescored, nil
}

// packQueryInto binarizes a composed query row. Dot-family queries are
// thresholded at zero (sign agreement with the mean-centered candidate
// bits is what tracks the dot product); distance-family queries use the
// same per-dimension thresholds as the candidates. Tail bits beyond the
// width stay zero, matching every candidate code.
func (ix *Index) packQueryInto(q []float32, dst []uint64) {
	if ix.comp.kind == kindDist {
		packInto(q, ix.thr, dst)
		return
	}
	for w := range dst {
		dst[w] = 0
	}
	for d, v := range q {
		if v > 0 {
			dst[d/WordBits] |= 1 << (uint(d) % WordBits)
		}
	}
}

// prefilterInto is the stage-1 hot loop: Hamming-score every entity code
// against the query, then fill cand with the len(cand) smallest
// (distance, id) pairs' ids, ascending, by a counting select. A histogram
// of the distances gives the threshold t, the smallest distance whose
// cumulative count reaches len(cand); one ascending-id pass then keeps
// every entity nearer than t and the lowest-id entities at t until cand is
// full — the set a (distance asc, id asc) top-len(cand) heap would keep.
func (ix *Index) prefilterInto(qcode []uint64, dists []int32, hist []int, cand []int32) {
	Kernel().HammingBlock(qcode, ix.codes, ix.words, dists)
	clear(hist)
	for _, d := range dists {
		hist[d]++
	}
	t, below := int32(0), 0
	for below+hist[t] < len(cand) {
		below += hist[t]
		t++
	}
	ties, n := len(cand)-below, 0
	for e, d := range dists {
		if d > t || (d == t && ties == 0) {
			continue
		}
		if d == t {
			ties--
		}
		cand[n] = int32(e)
		n++
	}
}
