// Package eval implements the paper's evaluation protocol (§3.2), following
// the ComplEx/OpenKE conventions: raw and filtered Mean Reciprocal Rank with
// Hits@{1,3,10} for link prediction, and Triple Classification Accuracy with
// per-relation thresholds fit on validation data.
package eval

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/xrand"
)

// RankResult summarizes a link-prediction evaluation. The json tags define
// the kgeeval -json contract.
type RankResult struct {
	// MRR is the raw mean reciprocal rank over head and tail replacement.
	MRR float64 `json:"mrr"`
	// FilteredMRR skips candidate triples present anywhere in the dataset
	// (the paper reports filtered MRR).
	FilteredMRR float64 `json:"filtered_mrr"`
	// MR is the filtered mean rank (lower is better).
	MR float64 `json:"filtered_mr"`
	// Hits@K are filtered.
	Hits1  float64 `json:"hits1"`
	Hits3  float64 `json:"hits3"`
	Hits10 float64 `json:"hits10"`
	// Triples is the number of test triples evaluated.
	Triples int `json:"triples"`
}

// subsample returns the test split, or when maxTriples > 0 caps it a
// deterministic rng-chosen subset of that size.
func subsample(test []kg.Triple, maxTriples int, rng *xrand.RNG) []kg.Triple {
	if maxTriples <= 0 || len(test) <= maxTriples {
		return test
	}
	perm := rng.Perm(len(test))
	sub := make([]kg.Triple, maxTriples)
	for i := range sub {
		sub[i] = test[perm[i]]
	}
	return sub
}

// sideRanks holds one test triple's rank among all head replacements and
// among all tail replacements, raw and filtered, indexed by model.Side.
type sideRanks struct{ raw, filt [2]int }

// rankTriples ranks every test triple against all replacements of each side:
// rank = 1 + the number of candidates scoring strictly higher than the true
// entity. The filtered rank is the raw rank minus the known facts among
// them, found by walking the query's known answers in f. Models score each side
// with one model.BlockScorer sweep over the entity table; a model without
// one is scored per candidate through Score. Triples are fanned out over
// GOMAXPROCS workers and each writes only its own slot, so callers reduce
// in index order and the result does not depend on the worker count.
func rankTriples(m model.Model, p *model.Params, d *kg.Dataset, f *kg.FilterIndex, test []kg.Triple) []sideRanks {
	out := make([]sideRanks, len(test))
	block, _ := m.(model.BlockScorer)
	var next atomic.Int64
	work := func() {
		scores := make([]float32, d.NumEntities)
		for i := int(next.Add(1)) - 1; i < len(test); i = int(next.Add(1)) - 1 {
			tr := test[i]
			for side := model.Head; side <= model.Tail; side++ {
				cand := tr
				trueEnt, fixed, slot := tr.H, tr.T, &cand.H
				if side == model.Tail {
					trueEnt, fixed, slot = tr.T, tr.H, &cand.T
				}
				if block != nil {
					// A rank counts every score above the true one, so
					// none may stop early: no floor.
					block.ScoreBlock(side, p.Entity.Row(int(fixed)), p.Relation.Row(int(tr.R)), p.Entity.Data, scores, float32(math.Inf(-1)))
				} else {
					for e := range scores {
						*slot = int32(e)
						scores[e] = m.Score(p, cand)
					}
				}
				// A candidate outscores the true entity unless it scores at
				// most as high: a NaN on either side counts as outscoring.
				trueScore := scores[trueEnt]
				raw := 1
				for _, s := range scores {
					if !(s <= trueScore) {
						raw++
					}
				}
				known := f.Tails(tr.H, tr.R)
				if side == model.Head {
					known = f.Heads(tr.R, tr.T)
				}
				filt := raw
				for _, e := range known {
					if !(scores[e] <= trueScore) {
						filt--
					}
				}
				out[i].raw[side], out[i].filt[side] = raw, filt
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(test))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}

// LinkPrediction ranks each test triple against all head and all tail
// replacements. maxTriples > 0 subsamples the test split deterministically
// (evaluation is O(|test| * |entities|), the dominant cost at scale); pass 0
// to evaluate everything.
func LinkPrediction(m model.Model, p *model.Params, d *kg.Dataset, f *kg.FilterIndex, maxTriples int, rng *xrand.RNG) RankResult {
	test := subsample(d.Test, maxTriples, rng)
	res := RankResult{Triples: len(test)}
	if len(test) == 0 {
		return res
	}
	var sumRaw, sumFiltered, sumRank float64
	var h1, h3, h10 int
	for _, r := range rankTriples(m, p, d, f, test) {
		for side := range r.raw {
			filtRank := r.filt[side]
			sumRaw += 1 / float64(r.raw[side])
			sumFiltered += 1 / float64(filtRank)
			sumRank += float64(filtRank)
			if filtRank <= 1 {
				h1++
			}
			if filtRank <= 3 {
				h3++
			}
			if filtRank <= 10 {
				h10++
			}
		}
	}
	n := float64(2 * len(test))
	res.MRR = sumRaw / n
	res.FilteredMRR = sumFiltered / n
	res.MR = sumRank / n
	res.Hits1 = float64(h1) / n
	res.Hits3 = float64(h3) / n
	res.Hits10 = float64(h10) / n
	return res
}

// TCAResult summarizes a triple-classification evaluation.
type TCAResult struct {
	// Accuracy is the fraction of test triples (positives and generated
	// negatives) classified correctly, in percent (as the paper's tables).
	Accuracy float64 `json:"accuracy_pct"`
	// Triples is the number of positive test triples used.
	Triples int `json:"triples"`
}

// corrupt returns a negative for tr that is not a known fact.
func corrupt(tr kg.Triple, numEntities int, f *kg.FilterIndex, rng *xrand.RNG) kg.Triple {
	for tries := 0; ; tries++ {
		neg := tr
		if rng.Bernoulli(0.5) {
			neg.H = int32(rng.Intn(numEntities))
		} else {
			neg.T = int32(rng.Intn(numEntities))
		}
		if neg != tr && (!f.Contains(neg) || tries > 50) {
			return neg
		}
	}
}

// scorePairs draws one corruption per triple of the splits, in order, and
// returns the scores of every (triple, corruption) pair: triple i's at 2i,
// its corruption's at 2i+1. Scoring consumes nothing from rng, so the draws
// are those of scoring pair by pair. The pairs are scored through one
// model.Batch, scoreChunk triples per call so its gathered rows stay small;
// as in rankTriples, a model that is not a BlockScorer is scored per triple
// through Score.
func scorePairs(m model.Model, p *model.Params, d *kg.Dataset, f *kg.FilterIndex, rng *xrand.RNG, splits ...[]kg.Triple) []float32 {
	n := 0
	for _, split := range splits {
		n += len(split)
	}
	pairs := make([]kg.Triple, 0, 2*n)
	for _, split := range splits {
		for _, tr := range split {
			pairs = append(pairs, tr, corrupt(tr, d.NumEntities, f, rng))
		}
	}
	scores := make([]float32, len(pairs))
	if _, ok := m.(model.BlockScorer); !ok {
		for i, tr := range pairs {
			scores[i] = m.Score(p, tr)
		}
		return scores
	}
	var b model.Batch
	for lo := 0; lo < len(pairs); lo += scoreChunk {
		hi := min(lo+scoreChunk, len(pairs))
		copy(scores[lo:hi], b.ScoreTriples(m, p, pairs[lo:hi]))
	}
	return scores
}

// scoreChunk is how many triples scorePairs scores per Batch call.
const scoreChunk = 1024

// scored pairs a score with its label for threshold fitting.
type scored struct {
	s   float32
	pos bool
}

// bestThreshold returns the threshold maximizing accuracy on the sample:
// classify positive iff score >= threshold.
func bestThreshold(samples []scored) float32 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].s < samples[j].s })
	totalPos := 0
	for _, s := range samples {
		if s.pos {
			totalPos++
		}
	}
	// Sweep thresholds from below the minimum upward. Starting threshold
	// (-inf): everything classified positive -> correct = totalPos.
	best := totalPos
	bestThr := samples[0].s - 1
	correct := totalPos
	for i := 0; i < len(samples); i++ {
		// Raise the threshold just above samples[i].
		if samples[i].pos {
			correct--
		} else {
			correct++
		}
		if correct > best && i+1 < len(samples) {
			best = correct
			bestThr = (samples[i].s + samples[i+1].s) / 2
		} else if correct > best {
			best = correct
			bestThr = samples[i].s + 1
		}
	}
	return bestThr
}

// AUC returns the area under the ROC curve for scoring test positives
// against one generated negative per positive — a threshold-free companion
// to TCA. Computed exactly via the rank-sum formulation with midrank tie
// handling.
func AUC(m model.Model, p *model.Params, d *kg.Dataset, f *kg.FilterIndex, rng *xrand.RNG) float64 {
	if len(d.Test) == 0 {
		return 0
	}
	type labeled struct {
		s   float32
		pos bool
	}
	scores := scorePairs(m, p, d, f, rng, d.Test)
	all := make([]labeled, len(scores))
	for i, s := range scores {
		all[i] = labeled{s, i%2 == 0}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	// Rank sum with midranks for ties.
	n := len(all)
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && all[j].s == all[i].s { //kgelint:ignore floateq midrank ties require exact score equality
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		i = j
	}
	var rankSumPos float64
	nPos := 0
	for i, l := range all {
		if l.pos {
			rankSumPos += ranks[i]
			nPos++
		}
	}
	nNeg := n - nPos
	if nPos == 0 || nNeg == 0 {
		return 0
	}
	return (rankSumPos - float64(nPos)*float64(nPos+1)/2) / (float64(nPos) * float64(nNeg))
}

// TripleClassification fits per-relation score thresholds on the validation
// split (falling back to a global threshold for relations unseen in
// validation) and reports accuracy on the test split, with one generated
// negative per positive — the OpenKE protocol used by the paper.
func TripleClassification(m model.Model, p *model.Params, d *kg.Dataset, f *kg.FilterIndex, rng *xrand.RNG) TCAResult {
	if len(d.Test) == 0 {
		return TCAResult{}
	}
	scores := scorePairs(m, p, d, f, rng, d.Valid, d.Test)
	// Collect validation scores per relation.
	perRel := map[int32][]scored{}
	var global []scored
	for i, tr := range d.Valid {
		sPos := scored{s: scores[2*i], pos: true}
		sNeg := scored{s: scores[2*i+1], pos: false}
		perRel[tr.R] = append(perRel[tr.R], sPos, sNeg)
		global = append(global, sPos, sNeg)
	}
	scores = scores[2*len(d.Valid):]
	globalThr := bestThreshold(global)
	thr := make(map[int32]float32, len(perRel))
	for r, samples := range perRel {
		if len(samples) >= 4 {
			thr[r] = bestThreshold(samples)
		} else {
			thr[r] = globalThr
		}
	}
	// Classify test positives and their negatives.
	correct, total := 0, 0
	for i, tr := range d.Test {
		th, ok := thr[tr.R]
		if !ok {
			th = globalThr
		}
		if scores[2*i] >= th {
			correct++
		}
		if scores[2*i+1] < th {
			correct++
		}
		total += 2
	}
	return TCAResult{
		Accuracy: 100 * float64(correct) / float64(total),
		Triples:  len(d.Test),
	}
}
