package eval

import (
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/xrand"
)

// RelationCategory is the standard FB15K relation taxonomy of Bordes et
// al. (2013): relations are 1-to-1, 1-to-N, N-to-1 or N-to-N according to
// the average number of heads per tail and tails per head in the training
// split.
type RelationCategory int

// The four categories; CatUnknown covers relations absent from training.
const (
	CatUnknown RelationCategory = iota
	Cat1To1
	Cat1ToN
	CatNTo1
	CatNToN
)

// String names the category as in the literature.
func (c RelationCategory) String() string {
	switch c {
	case Cat1To1:
		return "1-1"
	case Cat1ToN:
		return "1-N"
	case CatNTo1:
		return "N-1"
	case CatNToN:
		return "N-N"
	}
	return "unknown"
}

// categoryThreshold follows the convention: a side is "N" when the average
// multiplicity exceeds 1.5.
const categoryThreshold = 1.5

// CategorizeRelations classifies every relation from the training split.
func CategorizeRelations(d *kg.Dataset) []RelationCategory {
	// tailsPerHead[r] = |triples with r| / |distinct heads of r| etc.
	type pair struct{ e, r int32 }
	headSet := map[pair]struct{}{}
	tailSet := map[pair]struct{}{}
	count := make([]int, d.NumRelations)
	for _, t := range d.Train {
		count[t.R]++
		headSet[pair{t.H, t.R}] = struct{}{}
		tailSet[pair{t.T, t.R}] = struct{}{}
	}
	heads := make([]int, d.NumRelations)
	tails := make([]int, d.NumRelations)
	for p := range headSet {
		heads[p.r]++
	}
	for p := range tailSet {
		tails[p.r]++
	}
	out := make([]RelationCategory, d.NumRelations)
	for r := 0; r < d.NumRelations; r++ {
		if count[r] == 0 {
			out[r] = CatUnknown
			continue
		}
		tph := float64(count[r]) / float64(heads[r]) // tails per head
		hpt := float64(count[r]) / float64(tails[r]) // heads per tail
		switch {
		case tph < categoryThreshold && hpt < categoryThreshold:
			out[r] = Cat1To1
		case tph >= categoryThreshold && hpt < categoryThreshold:
			out[r] = Cat1ToN
		case tph < categoryThreshold && hpt >= categoryThreshold:
			out[r] = CatNTo1
		default:
			out[r] = CatNToN
		}
	}
	return out
}

// SideResult holds filtered MRR split by which side was replaced.
type SideResult struct {
	HeadMRR float64 `json:"head_mrr"`
	TailMRR float64 `json:"tail_mrr"`
	Triples int     `json:"triples"`
}

// DetailedResult breaks the filtered link-prediction metric down by
// replaced side and by relation category — the analysis grid the KGE
// literature reports alongside headline MRR.
type DetailedResult struct {
	Overall    SideResult
	ByCategory map[RelationCategory]SideResult
}

// DetailedLinkPrediction ranks each test triple against head and tail
// replacements (filtered protocol) and aggregates per side and category.
// maxTriples > 0 subsamples deterministically.
func DetailedLinkPrediction(m model.Model, p *model.Params, d *kg.Dataset, f *kg.FilterIndex, maxTriples int, rng *xrand.RNG) DetailedResult {
	cats := CategorizeRelations(d)
	test := subsample(d.Test, maxTriples, rng)
	res := DetailedResult{ByCategory: map[RelationCategory]SideResult{}}
	type acc struct {
		head, tail float64
		n          int
	}
	byCat := map[RelationCategory]*acc{}
	total := &acc{}
	for i, r := range rankTriples(m, p, d, f, test) {
		tr := test[i]
		rr := [2]float64{1 / float64(r.filt[0]), 1 / float64(r.filt[1])} // head, tail reciprocal ranks
		cat := cats[tr.R]
		a, ok := byCat[cat]
		if !ok {
			a = &acc{}
			byCat[cat] = a
		}
		for _, dst := range []*acc{a, total} {
			dst.head += rr[0]
			dst.tail += rr[1]
			dst.n++
		}
	}
	finish := func(a *acc) SideResult {
		if a.n == 0 {
			return SideResult{}
		}
		return SideResult{
			HeadMRR: a.head / float64(a.n),
			TailMRR: a.tail / float64(a.n),
			Triples: a.n,
		}
	}
	res.Overall = finish(total)
	for cat, a := range byCat {
		res.ByCategory[cat] = finish(a)
	}
	return res
}
