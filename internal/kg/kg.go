// Package kg provides the knowledge-graph substrate: triple stores,
// train/valid/test datasets, TSV IO compatible with the Freebase-derived
// benchmark layout, the filtered-evaluation index, and the triple
// partitioners (uniform and the paper's relation partition).
package kg

import (
	"fmt"
	"sort"
)

// Triple is one knowledge-graph fact {head, relation, tail}. Entities and
// relations are dense integer ids, as in the FB15K/FB250K id files.
type Triple struct {
	H int32 // head entity id
	R int32 // relation id
	T int32 // tail entity id
}

// Dataset is a benchmark dataset with standard splits.
type Dataset struct {
	Name         string
	NumEntities  int
	NumRelations int
	Train        []Triple
	Valid        []Triple
	Test         []Triple
}

// Size returns the total number of triples across all splits.
func (d *Dataset) Size() int { return len(d.Train) + len(d.Valid) + len(d.Test) }

// Validate checks id ranges and returns a descriptive error on violation.
func (d *Dataset) Validate() error {
	check := func(split string, ts []Triple) error {
		for i, t := range ts {
			if t.H < 0 || int(t.H) >= d.NumEntities || t.T < 0 || int(t.T) >= d.NumEntities {
				return fmt.Errorf("kg: %s triple %d has entity out of range: %+v", split, i, t)
			}
			if t.R < 0 || int(t.R) >= d.NumRelations {
				return fmt.Errorf("kg: %s triple %d has relation out of range: %+v", split, i, t)
			}
		}
		return nil
	}
	if err := check("train", d.Train); err != nil {
		return err
	}
	if err := check("valid", d.Valid); err != nil {
		return err
	}
	return check("test", d.Test)
}

// RelationHistogram counts training triples per relation.
func (d *Dataset) RelationHistogram() []int {
	h := make([]int, d.NumRelations)
	for _, t := range d.Train {
		h[t.R]++
	}
	return h
}

// FilterIndex is the set of all triples known across every split; filtered
// link-prediction ranking skips candidates found here (ComplEx evaluation
// protocol, paper §3.2).
type FilterIndex struct {
	set map[Triple]struct{}
}

// NewFilterIndex indexes every triple of the dataset.
func NewFilterIndex(d *Dataset) *FilterIndex {
	f := &FilterIndex{set: make(map[Triple]struct{}, d.Size())}
	for _, split := range [][]Triple{d.Train, d.Valid, d.Test} {
		for _, t := range split {
			f.set[t] = struct{}{}
		}
	}
	return f
}

// Contains reports whether the triple is a known fact.
func (f *FilterIndex) Contains(t Triple) bool {
	_, ok := f.set[t]
	return ok
}

// Len returns the number of distinct indexed triples.
func (f *FilterIndex) Len() int { return len(f.set) }

// ---- Partitioners ---------------------------------------------------------

// UniformPartition splits triples into p equal contiguous chunks (the
// baseline data distribution). The input order is preserved; shuffle first
// if randomization is wanted.
func UniformPartition(triples []Triple, p int) [][]Triple {
	if p <= 0 {
		panic("kg: UniformPartition with non-positive p")
	}
	out := make([][]Triple, p)
	n := len(triples)
	for r := 0; r < p; r++ {
		lo, hi := r*n/p, (r+1)*n/p
		out[r] = triples[lo:hi]
	}
	return out
}

// RelationPartition splits triples across p ranks so that no relation spans
// two ranks, following the paper's §4.4 recipe exactly: sort by relation,
// build the per-relation count array, prefix-sum it, and binary-search the p
// split points so per-rank triple counts stay balanced. With relation gradients
// thus rank-private, the relation gradient matrix needs no communication.
//
// The returned slices are fresh (the input is not reordered). Ranks may
// receive zero triples when p exceeds the number of distinct relations.
func RelationPartition(triples []Triple, numRelations, p int) [][]Triple {
	if p <= 0 {
		panic("kg: RelationPartition with non-positive p")
	}
	// Sort a copy by relation (stable order within a relation is irrelevant).
	sorted := append([]Triple(nil), triples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].R < sorted[j].R })

	// Count per relation and prefix-sum: prefix[r] = number of triples with
	// relation id < r.
	counts := make([]int, numRelations)
	for _, t := range sorted {
		counts[t.R]++
	}
	prefix := make([]int, numRelations+1)
	for r := 0; r < numRelations; r++ {
		prefix[r+1] = prefix[r] + counts[r]
	}
	total := prefix[numRelations]

	// For each split k, binary-search the first relation boundary whose
	// prefix reaches k*total/p. Boundaries are relation indices, so no
	// relation is ever split.
	bounds := make([]int, p+1) // bounds in relation-id space
	bounds[p] = numRelations
	for k := 1; k < p; k++ {
		target := k * total / p
		// Smallest r with prefix[r] >= target.
		r := sort.SearchInts(prefix, target)
		if r > numRelations {
			r = numRelations
		}
		if r < bounds[k-1] {
			r = bounds[k-1] // keep boundaries monotone
		}
		bounds[k] = r
	}

	out := make([][]Triple, p)
	for k := 0; k < p; k++ {
		lo, hi := prefix[bounds[k]], prefix[bounds[k+1]]
		part := make([]Triple, hi-lo)
		copy(part, sorted[lo:hi])
		out[k] = part
	}
	return out
}

// PartitionRelationsDisjoint verifies the relation-partition invariant: no
// relation id appears in more than one part. It returns the offending
// relation id, or -1 when the invariant holds.
func PartitionRelationsDisjoint(parts [][]Triple) int32 {
	owner := map[int32]int{}
	for rank, part := range parts {
		for _, t := range part {
			if prev, ok := owner[t.R]; ok && prev != rank {
				return t.R
			}
			owner[t.R] = rank
		}
	}
	return -1
}

// PartitionImbalance returns max/mean triple-load ratio across non-empty
// target ranks (1.0 = perfectly balanced).
func PartitionImbalance(parts [][]Triple) float64 {
	total, max := 0, 0
	for _, p := range parts {
		total += len(p)
		if len(p) > max {
			max = len(p)
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(parts))
	return float64(max) / mean
}

// Stats summarizes a dataset's shape for reports and sanity checks.
type Stats struct {
	Entities  int
	Relations int
	Train     int
	Valid     int
	Test      int
	// UsedRelations counts relations with at least one training triple.
	UsedRelations int
	// MaxRelationCount is the largest per-relation training count (the
	// skew that stresses the relation partitioner).
	MaxRelationCount int
	// AvgDegree is the mean number of training triples an entity appears
	// in (as head or tail).
	AvgDegree float64
	// MaxDegree is the largest such count.
	MaxDegree int
}

// ComputeStats scans the dataset once and returns its Stats.
func ComputeStats(d *Dataset) Stats {
	s := Stats{
		Entities:  d.NumEntities,
		Relations: d.NumRelations,
		Train:     len(d.Train),
		Valid:     len(d.Valid),
		Test:      len(d.Test),
	}
	deg := make([]int, d.NumEntities)
	for _, h := range d.RelationHistogram() {
		if h > 0 {
			s.UsedRelations++
		}
		if h > s.MaxRelationCount {
			s.MaxRelationCount = h
		}
	}
	for _, t := range d.Train {
		deg[t.H]++
		deg[t.T]++
	}
	total := 0
	for _, c := range deg {
		total += c
		if c > s.MaxDegree {
			s.MaxDegree = c
		}
	}
	if d.NumEntities > 0 {
		s.AvgDegree = float64(total) / float64(d.NumEntities)
	}
	return s
}
