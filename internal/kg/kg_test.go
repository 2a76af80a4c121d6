package kg

import (
	"testing"
	"testing/quick"

	"kgedist/internal/xrand"
)

func smallDataset() *Dataset {
	return &Dataset{
		Name:         "toy",
		NumEntities:  11,
		NumRelations: 4,
		Train: []Triple{
			{H: 1, R: 1, T: 2}, {H: 2, R: 1, T: 10}, {H: 3, R: 2, T: 5},
			{H: 6, R: 3, T: 9}, {H: 7, R: 3, T: 8},
		},
		Valid: []Triple{{H: 1, R: 2, T: 3}},
		Test:  []Triple{{H: 4, R: 0, T: 5}},
	}
}

func TestDatasetSizeAndValidate(t *testing.T) {
	t.Parallel()
	d := smallDataset()
	if d.Size() != 7 {
		t.Fatalf("Size = %d", d.Size())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	d.Train = append(d.Train, Triple{H: 99, R: 0, T: 0})
	if err := d.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range entity")
	}
	d.Train = d.Train[:len(d.Train)-1]
	d.Test = append(d.Test, Triple{H: 0, R: 9, T: 0})
	if err := d.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range relation")
	}
}

func TestRelationHistogram(t *testing.T) {
	t.Parallel()
	d := smallDataset()
	h := d.RelationHistogram()
	want := []int{0, 2, 1, 2}
	for r, c := range want {
		if h[r] != c {
			t.Fatalf("histogram[%d] = %d, want %d", r, h[r], c)
		}
	}
}

func TestFilterIndex(t *testing.T) {
	t.Parallel()
	d := smallDataset()
	f := NewFilterIndex(d)
	if f.Len() != 7 {
		t.Fatalf("Len = %d", f.Len())
	}
	if !f.Contains(Triple{H: 1, R: 1, T: 2}) {
		t.Fatal("train triple missing")
	}
	if !f.Contains(Triple{H: 4, R: 0, T: 5}) {
		t.Fatal("test triple missing")
	}
	if f.Contains(Triple{H: 1, R: 1, T: 3}) {
		t.Fatal("unknown triple reported present")
	}
}

func TestUniformPartition(t *testing.T) {
	t.Parallel()
	ts := make([]Triple, 10)
	for i := range ts {
		ts[i].H = int32(i)
	}
	parts := UniformPartition(ts, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	// Sizes differ by at most 1.
	for _, p := range parts {
		if len(p) < 3 || len(p) > 4 {
			t.Fatalf("unbalanced uniform part: %d", len(p))
		}
	}
}

// TestRelationPartitionPaperExample reproduces Table 3 of the paper: five
// triples over three relations split across two processors with no relation
// overlap — triples 1,2 (relation 1) on one rank, the rest on the other.
func TestRelationPartitionPaperExample(t *testing.T) {
	t.Parallel()
	triples := []Triple{
		{H: 1, R: 1, T: 2},
		{H: 2, R: 1, T: 10},
		{H: 3, R: 2, T: 5},
		{H: 6, R: 3, T: 9},
		{H: 7, R: 3, T: 8},
	}
	parts := RelationPartition(triples, 4, 2)
	if bad := PartitionRelationsDisjoint(parts); bad != -1 {
		t.Fatalf("relation %d spans ranks", bad)
	}
	if len(parts[0]) != 2 || len(parts[1]) != 3 {
		t.Fatalf("split sizes %d/%d, want 2/3", len(parts[0]), len(parts[1]))
	}
	for _, tr := range parts[0] {
		if tr.R != 1 {
			t.Fatalf("rank 0 got relation %d", tr.R)
		}
	}
}

func TestRelationPartitionInvariants(t *testing.T) {
	t.Parallel()
	d := Generate(GenConfig{Name: "g", Entities: 500, Relations: 60, Triples: 8000, Seed: 1})
	for _, p := range []int{1, 2, 3, 4, 8, 16} {
		parts := RelationPartition(d.Train, d.NumRelations, p)
		if len(parts) != p {
			t.Fatalf("p=%d: got %d parts", p, len(parts))
		}
		if bad := PartitionRelationsDisjoint(parts); bad != -1 {
			t.Fatalf("p=%d: relation %d spans ranks", p, bad)
		}
		total := 0
		for _, part := range parts {
			total += len(part)
		}
		if total != len(d.Train) {
			t.Fatalf("p=%d: lost triples: %d vs %d", p, total, len(d.Train))
		}
		// Multiset preservation.
		count := map[Triple]int{}
		for _, tr := range d.Train {
			count[tr]++
		}
		for _, part := range parts {
			for _, tr := range part {
				count[tr]--
			}
		}
		for tr, c := range count {
			if c != 0 {
				t.Fatalf("p=%d: triple %+v multiplicity off by %d", p, tr, c)
			}
		}
	}
}

func TestRelationPartitionBalance(t *testing.T) {
	t.Parallel()
	// With many comparable relations the prefix-sum split must be close to
	// balanced (the paper's motivation for binary-searching split points).
	d := Generate(GenConfig{Name: "g", Entities: 2000, Relations: 300, Triples: 30000,
		RelationZipf: 0.3, Seed: 2})
	for _, p := range []int{2, 4, 8} {
		parts := RelationPartition(d.Train, d.NumRelations, p)
		if imb := PartitionImbalance(parts); imb > 1.25 {
			t.Fatalf("p=%d imbalance %v > 1.25", p, imb)
		}
	}
}

func TestRelationPartitionMoreRanksThanRelations(t *testing.T) {
	t.Parallel()
	triples := []Triple{{H: 0, R: 0, T: 1}, {H: 1, R: 0, T: 2}}
	parts := RelationPartition(triples, 1, 4)
	if bad := PartitionRelationsDisjoint(parts); bad != -1 {
		t.Fatal("invariant violated")
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 2 {
		t.Fatalf("lost triples, total=%d", total)
	}
}

func TestRelationPartitionEmptyInput(t *testing.T) {
	t.Parallel()
	parts := RelationPartition(nil, 5, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	for _, p := range parts {
		if len(p) != 0 {
			t.Fatal("non-empty part from empty input")
		}
	}
}

func TestPartitionImbalanceValues(t *testing.T) {
	t.Parallel()
	equal := [][]Triple{make([]Triple, 5), make([]Triple, 5)}
	if got := PartitionImbalance(equal); got != 1 {
		t.Fatalf("balanced imbalance = %v", got)
	}
	skew := [][]Triple{make([]Triple, 9), make([]Triple, 1)}
	if got := PartitionImbalance(skew); got != 1.8 {
		t.Fatalf("skewed imbalance = %v", got)
	}
	if got := PartitionImbalance([][]Triple{nil, nil}); got != 1 {
		t.Fatalf("empty imbalance = %v", got)
	}
}

// Property: relation partition never splits a relation and never loses
// triples, for arbitrary random triple sets and rank counts.
func TestQuickRelationPartition(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, pRaw, nRelRaw uint8, nRaw uint16) bool {
		p := int(pRaw%16) + 1
		nRel := int(nRelRaw%50) + 1
		n := int(nRaw % 2000)
		rng := xrand.New(seed)
		triples := make([]Triple, n)
		for i := range triples {
			triples[i] = Triple{
				H: int32(rng.Intn(100)),
				R: int32(rng.Intn(nRel)),
				T: int32(rng.Intn(100)),
			}
		}
		parts := RelationPartition(triples, nRel, p)
		if PartitionRelationsDisjoint(parts) != -1 {
			return false
		}
		total := 0
		for _, part := range parts {
			total += len(part)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	t.Parallel()
	d := smallDataset()
	s := ComputeStats(d)
	if s.Entities != 11 || s.Relations != 4 || s.Train != 5 || s.Valid != 1 || s.Test != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.UsedRelations != 3 { // relation 0 is unused in train
		t.Fatalf("UsedRelations = %d", s.UsedRelations)
	}
	if s.MaxRelationCount != 2 {
		t.Fatalf("MaxRelationCount = %d", s.MaxRelationCount)
	}
	// Entity 2 appears twice (tail of triple 1, head of triple 2).
	if s.MaxDegree != 2 {
		t.Fatalf("MaxDegree = %d", s.MaxDegree)
	}
	wantAvg := float64(2*5) / 11
	if s.AvgDegree != wantAvg {
		t.Fatalf("AvgDegree = %v, want %v", s.AvgDegree, wantAvg)
	}
}
