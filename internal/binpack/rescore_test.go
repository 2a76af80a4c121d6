package binpack

import (
	"fmt"
	"math"
	"testing"

	"kgedist/internal/eval"
	"kgedist/internal/model"
	"kgedist/internal/xrand"
)

// rescoreRef is stage 2 as one ScoreRows call per candidate: the oracle
// for Search's gathered block rescore. It scores sc.cand, the candidate
// set the last Search on sc selected, in the same order with the same
// skip, and returns the top k and how many candidates it scored.
func rescoreRef(m model.Model, side string, fixRow, relRow []float32, entityRow func(e int) []float32,
	k int, skip func(e int32) bool, cand []int32) ([]eval.ScoredEntity, int) {
	acc := eval.NewTopK(k)
	scored := 0
	for _, e := range cand {
		if skip != nil && skip(e) {
			continue
		}
		row := entityRow(int(e))
		if side == "tail" {
			acc.Offer(e, m.ScoreRows(fixRow, relRow, row))
		} else {
			acc.Offer(e, m.ScoreRows(row, relRow, fixRow))
		}
		scored++
	}
	return acc.Results(), scored
}

// sameResults compares two rankings bit for bit, ids and score bits, so a
// -0 equals only a -0. Every NaN is one class: NaN payloads are not part of
// the kernels' contract (DESIGN.md §10).
func sameResults(got, want []eval.ScoredEntity) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i].Score, want[i].Score
		same := math.Float32bits(g) == math.Float32bits(w) || (math.IsNaN(float64(g)) && math.IsNaN(float64(w)))
		if got[i].Entity != want[i].Entity || !same {
			return fmt.Errorf("rank %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// prunedCounter forwards ScoreBlock to the model's own kernel and counts
// the rows it left inexact (scored below the floor without finishing), so
// a test can show the floor was exercised, not just passed.
type prunedCounter struct {
	model.Model
	pruned *int
}

func (p prunedCounter) ScoreBlock(side model.Side, fixed, rel, slab, out []float32, floor float32) {
	p.Model.(model.BlockScorer).ScoreBlock(side, fixed, rel, slab, out, floor)
	w := p.Width()
	for i, s := range out {
		row := slab[i*w : (i+1)*w]
		exact := p.ScoreRows(fixed, rel, row)
		if side == model.Head {
			exact = p.ScoreRows(row, rel, fixed)
		}
		if math.Float32bits(s) != math.Float32bits(exact) {
			*p.pruned++
		}
	}
}

// TestSearchRescoreMatchesScoreRows holds the gathered block rescore to a
// per-row ScoreRows rescore of the same candidates, bit for bit, at the
// serving shape: 50 000 × 64 ClusteredInit rows in 512 clusters, where
// TransE's top-k floor stops most losing rows after a quarter of k. All
// three families, both sides, with and without a filter, at budgets that
// are not multiples of the kernels' 16-row blocks or of rescoreChunk.
func TestSearchRescoreMatchesScoreRows(t *testing.T) {
	const entities, relations, dim, clusters, k = 50000, 16, 64, 512, 10
	queries := 12
	if testing.Short() {
		queries = 4
	}
	for _, name := range []string{"transe", "distmult", "complex"} {
		m := model.New(name, dim)
		p := model.NewParams(m, entities, relations)
		p.ClusteredInit(m, clusters, 0.25, xrand.New(5))
		ix, err := BuildFromParams(m, p)
		if err != nil {
			t.Fatal(err)
		}
		pruned := 0
		counted := prunedCounter{Model: m, pruned: &pruned}
		sc := NewScratch()
		for _, c := range []int{10, 77, 1000, 1024, 1037} {
			for q := 0; q < queries; q++ {
				side := [2]string{"tail", "head"}[q%2]
				fix, rel := (q*7919+c)%entities, q%relations
				fixRow, relRow := p.Entity.Row(fix), p.Relation.Row(rel)
				var skip func(e int32) bool
				if q%3 == 2 {
					skip = func(e int32) bool { return e%3 == 0 }
				}
				got, candidates, rescored, err := ix.Search(counted, side, fixRow, relRow, p.Entity.Row, k, c, skip, sc)
				if err != nil {
					t.Fatal(err)
				}
				want, scored := rescoreRef(m, side, fixRow, relRow, p.Entity.Row, k, skip, sc.cand)
				if candidates != c || rescored != scored {
					t.Fatalf("%s c=%d q=%d: candidates=%d rescored=%d, want %d and %d", name, c, q, candidates, rescored, c, scored)
				}
				if err := sameResults(got, want); err != nil {
					t.Fatalf("%s %s c=%d q=%d filtered=%v: %v", name, side, c, q, skip != nil, err)
				}
			}
		}
		t.Logf("%s: %d rows left inexact under the floor", name, pruned)
		if name == "transe" && pruned == 0 {
			t.Fatal("transe: no row was left inexact under the floor; the test no longer exercises pruning")
		}
	}
}

// FuzzSearchRescore drives Search over arbitrary small tables whose
// entries include NaN, ±Inf and -0, arbitrary skip masks and budgets from
// one candidate to several rescoreChunks, and holds its gathered block
// rescore to the per-row ScoreRows reference over the same candidates.
func FuzzSearchRescore(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint16(200), uint16(150), uint8(9), uint64(0), []byte("binarized knowledge graph embeddings"))
	f.Add(uint8(1), uint8(3), uint16(90), uint16(64), uint8(3), uint64(0x5555), []byte{0x00, 0x01, 0x02, 0x03, 0x40, 0x91})
	f.Add(uint8(2), uint8(2), uint16(300), uint16(255), uint8(11), uint64(0xf0f0f0f0), []byte{0x7f, 0x13, 0xa5})
	f.Add(uint8(0), uint8(4), uint16(1), uint16(0), uint8(0), uint64(1), []byte{})
	f.Fuzz(func(t *testing.T, fam, d uint8, n, c uint16, k uint8, mask uint64, data []byte) {
		name := [3]string{"transe", "distmult", "complex"}[fam%3]
		dim := [6]int{1, 5, 16, 20, 32, 64}[d%6]
		rows, relations := int(n)%300+1, 3
		budget := int(c)%(4*rescoreChunk+9) + 1
		topK := int(k)%12 + 1
		// Each float comes from one byte: the low values are the IEEE
		// specials, the rest small signed numbers with many exact ties.
		special := [...]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}
		at := func(i int) float32 {
			if len(data) == 0 {
				return 0
			}
			b := data[i%len(data)] ^ byte(i*131)
			if int(b) < len(special) {
				return special[b]
			}
			return float32(int8(b)) / 16
		}
		m := model.New(name, dim)
		p := model.NewParams(m, rows, relations)
		for i := range p.Entity.Data {
			p.Entity.Data[i] = at(i)
		}
		for i := range p.Relation.Data {
			p.Relation.Data[i] = at(len(p.Entity.Data) + i)
		}
		ix, err := BuildFromParams(m, p)
		if err != nil {
			t.Fatal(err)
		}
		skip := func(e int32) bool { return mask>>(uint(e)%64)&1 == 1 }
		if mask == 0 {
			skip = nil
		}
		sc := NewScratch()
		for q := 0; q < 4; q++ {
			side := [2]string{"tail", "head"}[q%2]
			fixRow, relRow := p.Entity.Row(q%rows), p.Relation.Row(q%relations)
			got, _, rescored, err := ix.Search(m, side, fixRow, relRow, p.Entity.Row, topK, budget, skip, sc)
			if err != nil {
				t.Fatal(err)
			}
			want, scored := rescoreRef(m, side, fixRow, relRow, p.Entity.Row, min(topK, rows), skip, sc.cand)
			if rescored != scored {
				t.Fatalf("%s dim=%d rows=%d c=%d: rescored %d, reference %d", name, dim, rows, budget, rescored, scored)
			}
			if err := sameResults(got, want); err != nil {
				t.Fatalf("%s dim=%d rows=%d c=%d k=%d %s: %v", name, dim, rows, budget, topK, side, err)
			}
		}
	})
}
