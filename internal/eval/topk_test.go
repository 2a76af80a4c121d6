package eval

import (
	"math"
	"testing"

	"kgedist/internal/kg"
	"kgedist/internal/xrand"
)

func TestTopKOrderingAndTies(t *testing.T) {
	t.Parallel()
	// Entities 2 and 4 tie at 5.0: the lower id must rank first.
	scores := []float32{1, 3, 5, 2, 5, 0}
	got := TopK(len(scores), 3, func(e int32) float32 { return scores[e] }, nil)
	want := []ScoredEntity{{2, 5}, {4, 5}, {1, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got %v, want %v (full %v)", i, got[i], want[i], got)
		}
	}
}

func TestTopKSkip(t *testing.T) {
	t.Parallel()
	scores := []float32{9, 8, 7, 6}
	skip := func(e int32) bool { return e == 0 || e == 2 }
	got := TopK(len(scores), 10, func(e int32) float32 { return scores[e] }, skip)
	want := []ScoredEntity{{1, 8}, {3, 6}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTopKAccumulatorMatchesFullSort(t *testing.T) {
	t.Parallel()
	// Against a brute-force oracle over random scores, including ties: the
	// accumulator must select exactly the same ranked prefix.
	rng := xrand.New(11)
	const n, k = 200, 7
	scores := make([]float32, n)
	for i := range scores {
		// Coarse quantization forces plenty of exact ties.
		scores[i] = float32(rng.Intn(8))
	}
	oracle := TopK(n, n, func(e int32) float32 { return scores[e] }, nil)[:k]
	acc := NewTopK(k)
	for e := 0; e < n; e++ {
		acc.Offer(int32(e), scores[e])
	}
	got := acc.Results()
	for i := range oracle {
		if got[i] != oracle[i] {
			t.Fatalf("rank %d: got %v, want %v", i, got[i], oracle[i])
		}
	}
}

func TestTopKAccumulatorMerge(t *testing.T) {
	t.Parallel()
	scores := []float32{4, 1, 9, 3, 7, 2, 8, 5}
	// Split the id space into two shard accumulators, then merge.
	a, b := NewTopK(3), NewTopK(3)
	for e := 0; e < 4; e++ {
		a.Offer(int32(e), scores[e])
	}
	for e := 4; e < 8; e++ {
		b.Offer(int32(e), scores[e])
	}
	a.Merge(b)
	got := a.Results()
	want := []ScoredEntity{{2, 9}, {6, 8}, {4, 7}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// Floor is -Inf until k entries are kept, then the worst kept score, and
// it only rises. The property a floored scorer relies on: a candidate below
// the floor, or NaN, leaves the accumulator as it was, so replacing its score
// by any other value below the floor changes no result.
func TestTopKAccumulatorFloor(t *testing.T) {
	t.Parallel()
	inf := float32(math.Inf(-1))
	a := NewTopK(3)
	for i, s := range []float32{4, 2} {
		a.Offer(int32(10+i), s)
		if f := a.Floor(); f != inf {
			t.Fatalf("floor %v with %d of 3 kept, want -Inf", f, i+1)
		}
	}
	a.Offer(12, 7)
	if f := a.Floor(); f != 2 {
		t.Fatalf("floor %v with {4, 2, 7} kept, want 2", f)
	}
	a.Offer(13, 5)
	if f := a.Floor(); f != 4 {
		t.Fatalf("floor %v after 5 displaced 2, want 4", f)
	}
	before := a.Results()
	a.OfferBlock(0, []float32{3.9, float32(math.NaN()), inf, -1e30}, nil)
	a.Offer(8, float32(math.NaN()))
	if after := a.Results(); len(after) != len(before) || after[0] != before[0] || after[1] != before[1] || after[2] != before[2] {
		t.Fatalf("candidates below the floor changed the top k: %v, was %v", after, before)
	}
	// A tie at the floor is not below it: the lower id enters.
	a.Offer(9, 4)
	if got := a.Results(); got[2] != (ScoredEntity{9, 4}) || a.Floor() != 4 {
		t.Fatalf("a tie at the floor with a lower id: %v, floor %v", got, a.Floor())
	}
	a.Reset(2)
	if f := a.Floor(); f != inf {
		t.Fatalf("floor %v after Reset, want -Inf", f)
	}
}

func TestTopKSmallerThanK(t *testing.T) {
	t.Parallel()
	got := TopK(2, 10, func(e int32) float32 { return float32(e) }, nil)
	if len(got) != 2 || got[0].Entity != 1 || got[1].Entity != 0 {
		t.Fatalf("got %v", got)
	}
}

// TestLinkPredictionExactTies pins the tie-breaking convention the serve
// predict path inherits: candidates scoring exactly equal to the true
// entity do NOT push its rank down (strictly-greater comparison), so a
// constant model ranks everything at 1.
func TestLinkPredictionExactTies(t *testing.T) {
	t.Parallel()
	d := &kg.Dataset{
		NumEntities:  5,
		NumRelations: 1,
		Test:         []kg.Triple{{H: 0, R: 0, T: 1}, {H: 2, R: 0, T: 3}},
	}
	f := kg.NewFilterIndex(d)
	m := &fixedModel{def: 1.5} // every triple scores identically
	res := LinkPrediction(m, nil, d, f, 0, xrand.New(1))
	if math.Abs(res.MRR-1) > 1e-12 || math.Abs(res.FilteredMRR-1) > 1e-12 {
		t.Fatalf("tied scores must rank optimistically: MRR %v filtered %v", res.MRR, res.FilteredMRR)
	}
	if math.Abs(res.Hits1-1) > 1e-12 {
		t.Fatalf("Hits@1 = %v, want 1", res.Hits1)
	}
	if math.Abs(res.MR-1) > 1e-12 {
		t.Fatalf("mean rank = %v, want 1", res.MR)
	}
}

// TestLinkPredictionPartialTies: one candidate strictly above the truth,
// one exactly tied. The strict candidate costs a rank, the tie does not.
func TestLinkPredictionPartialTies(t *testing.T) {
	t.Parallel()
	tr := kg.Triple{H: 0, R: 0, T: 1}
	d := &kg.Dataset{
		NumEntities:  4,
		NumRelations: 1,
		Test:         []kg.Triple{tr},
	}
	f := kg.NewFilterIndex(d)
	m := &fixedModel{
		scores: map[kg.Triple]float32{
			tr:                 2,
			{H: 0, R: 0, T: 2}: 5, // strictly above: costs a rank
			{H: 0, R: 0, T: 3}: 2, // exact tie: free
			// Head side: every corruption scores def < 2, so head rank 1.
		},
		def: -1,
	}
	res := LinkPrediction(m, nil, d, f, 0, xrand.New(1))
	// Tail rank 2 (rr 0.5), head rank 1 (rr 1.0) -> MRR 0.75.
	if math.Abs(res.FilteredMRR-0.75) > 1e-12 {
		t.Fatalf("filtered MRR = %v, want 0.75", res.FilteredMRR)
	}
}

func TestCategorizeRelationsEmptySplit(t *testing.T) {
	t.Parallel()
	d := &kg.Dataset{NumEntities: 10, NumRelations: 3}
	got := CategorizeRelations(d)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for r, c := range got {
		if c != CatUnknown {
			t.Fatalf("relation %d on empty split: %v, want unknown", r, c)
		}
	}
	// Zero relations: no panic, empty result.
	if got := CategorizeRelations(&kg.Dataset{NumEntities: 1}); len(got) != 0 {
		t.Fatalf("zero-relation dataset: %v", got)
	}
}

func TestCategorizeRelationsSingleRelation(t *testing.T) {
	t.Parallel()
	// A single triple is trivially 1-1 regardless of dataset size.
	d := &kg.Dataset{
		NumEntities:  2,
		NumRelations: 1,
		Train:        []kg.Triple{{H: 0, R: 0, T: 1}},
	}
	got := CategorizeRelations(d)
	if len(got) != 1 || got[0] != Cat1To1 {
		t.Fatalf("single-triple relation: %v, want [1-1]", got)
	}
	// Same entity pair repeated does not change multiplicity.
	d.Train = append(d.Train, kg.Triple{H: 0, R: 0, T: 1})
	if got := CategorizeRelations(d); got[0] == CatUnknown {
		t.Fatalf("duplicated triple miscategorized: %v", got)
	}
	// Self-loop only: head set == tail set, still categorizable.
	loop := &kg.Dataset{
		NumEntities:  1,
		NumRelations: 1,
		Train:        []kg.Triple{{H: 0, R: 0, T: 0}},
	}
	if got := CategorizeRelations(loop); got[0] != Cat1To1 {
		t.Fatalf("self-loop: %v, want 1-1", got)
	}
}
