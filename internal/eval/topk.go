package eval

import (
	"math"
	"sort"
)

// ScoredEntity pairs an entity id with its score; the unit of top-K
// completion and nearest-neighbor results.
type ScoredEntity struct {
	Entity int32
	Score  float32
}

// TopKAccumulator incrementally keeps the k best ScoredEntity seen so far.
// It exists so a single sweep over the entity table can feed many ranking
// queries at once — kgeserve's micro-batcher offers each candidate row to
// every request in the batch — while evaluation code uses the TopK wrapper
// below. Ordering is deterministic: higher score wins, exact ties break
// toward the lower entity id, matching the optimistic tie handling of
// LinkPrediction so a served ranking never disagrees with an offline one
// on tied scores.
//
// Not safe for concurrent use; each request owns its accumulator.
type TopKAccumulator struct {
	k    int
	heap []ScoredEntity // min-heap on "better": root is the worst kept entry
}

// NewTopK returns an accumulator keeping the k best entries. k must be
// positive.
func NewTopK(k int) *TopKAccumulator {
	if k <= 0 {
		panic("eval: NewTopK with non-positive k")
	}
	return &TopKAccumulator{k: k, heap: make([]ScoredEntity, 0, k)}
}

// better reports whether a outranks b: higher score first, then lower id.
func better(a, b ScoredEntity) bool {
	if a.Score != b.Score { //kgelint:ignore floateq deterministic tie-break requires exact score comparison
		return a.Score > b.Score
	}
	return a.Entity < b.Entity
}

// Offer considers one candidate.
func (a *TopKAccumulator) Offer(e int32, s float32) {
	c := ScoredEntity{Entity: e, Score: s}
	if len(a.heap) < a.k {
		a.heap = append(a.heap, c)
		a.up(len(a.heap) - 1)
		return
	}
	if !better(c, a.heap[0]) {
		return
	}
	a.heap[0] = c
	a.down(0)
}

// OfferBlock considers scores[i] for entity base+i, in order. skip, when
// non-nil, drops candidates and is asked only about those that would be
// kept: rejecting a candidate that cannot enter the top k needs no lookup.
func (a *TopKAccumulator) OfferBlock(base int32, scores []float32, skip func(e int32) bool) {
	for i, s := range scores {
		c := ScoredEntity{Entity: base + int32(i), Score: s}
		if len(a.heap) == a.k && !better(c, a.heap[0]) {
			continue
		}
		if skip == nil || !skip(c.Entity) {
			a.Offer(c.Entity, s)
		}
	}
}

// Floor returns the score a candidate must reach to enter the top k: the
// worst kept score once k entries are kept, -Inf before that. A candidate
// scoring below it (or NaN) is rejected by Offer and OfferBlock, so a
// scorer may hand them any value below it instead of the exact score (see
// model.BlockScorer). The floor only rises as candidates are offered.
func (a *TopKAccumulator) Floor() float32 {
	if len(a.heap) < a.k {
		return float32(math.Inf(-1))
	}
	return a.heap[0].Score
}

func (a *TopKAccumulator) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		// Min-heap on "better": a worse entry floats toward the root.
		if !better(a.heap[parent], a.heap[i]) {
			break
		}
		a.heap[parent], a.heap[i] = a.heap[i], a.heap[parent]
		i = parent
	}
}

func (a *TopKAccumulator) down(i int) {
	n := len(a.heap)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && better(a.heap[worst], a.heap[l]) {
			worst = l
		}
		if r < n && better(a.heap[worst], a.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		a.heap[i], a.heap[worst] = a.heap[worst], a.heap[i]
		i = worst
	}
}

// Reset empties the accumulator and re-arms it for k entries, reusing the
// heap backing when it is large enough. Callers that run many queries
// through one accumulator (the binarized search's rescore) reset instead of
// reallocating.
func (a *TopKAccumulator) Reset(k int) {
	if k <= 0 {
		panic("eval: Reset with non-positive k")
	}
	a.k = k
	if cap(a.heap) < k {
		a.heap = make([]ScoredEntity, 0, k)
	}
	a.heap = a.heap[:0]
}

// Results returns the kept entries best-first. The accumulator may be
// reused afterwards; the returned slice is fresh.
func (a *TopKAccumulator) Results() []ScoredEntity {
	out := append([]ScoredEntity(nil), a.heap...)
	sort.Slice(out, func(i, j int) bool { return better(out[i], out[j]) })
	return out
}

// Merge folds the entries of other into a. Used to combine per-shard
// accumulators after a parallel sweep.
func (a *TopKAccumulator) Merge(other *TopKAccumulator) {
	for _, c := range other.heap {
		a.Offer(c.Entity, c.Score)
	}
}

// TopK scans candidate entity ids [0, n), scoring each with score and
// skipping those for which skip (if non-nil) returns true, and returns the
// k best, best-first. This is the single-query convenience over
// TopKAccumulator.
func TopK(n, k int, score func(e int32) float32, skip func(e int32) bool) []ScoredEntity {
	acc := NewTopK(k)
	for e := int32(0); int(e) < n; e++ {
		if skip != nil && skip(e) {
			continue
		}
		acc.Offer(e, score(e))
	}
	return acc.Results()
}
