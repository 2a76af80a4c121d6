package binpack

import (
	"math/rand"
	"testing"

	"kgedist/internal/eval"
	"kgedist/internal/model"
	"kgedist/internal/xrand"
)

// buildRandom returns a model, params and index over seeded random rows.
func buildRandom(t *testing.T, name string, dim, entities, relations int, seed uint64) (model.Model, *model.Params, *Index) {
	t.Helper()
	m := model.New(name, dim)
	p := model.NewParams(m, entities, relations)
	p.Init(m, xrand.New(seed))
	ix, err := BuildFromParams(m, p)
	if err != nil {
		t.Fatalf("BuildFromParams(%s): %v", name, err)
	}
	return m, p, ix
}

func TestPackUnpackRoundTrip(t *testing.T) {
	// Widths straddling word boundaries, including dim % 64 != 0 tails.
	for _, width := range []int{1, 7, 63, 64, 65, 100, 128, 130} {
		thr := make([]float32, width)
		row := make([]float32, width)
		rng := rand.New(rand.NewSource(int64(width)))
		for d := range row {
			row[d] = float32(rng.NormFloat64())
			thr[d] = float32(rng.NormFloat64() * 0.1)
		}
		words := (width + WordBits - 1) / WordBits
		code := make([]uint64, words)
		packInto(row, thr, code)
		// Every bit must equal the threshold comparison; tail bits zero.
		for d := 0; d < width; d++ {
			got := code[d/WordBits]&(1<<(uint(d)%WordBits)) != 0
			want := row[d] > thr[d]
			if got != want {
				t.Fatalf("width %d: bit %d = %v, want %v", width, d, got, want)
			}
		}
		for b := width; b < words*WordBits; b++ {
			if code[b/WordBits]&(1<<(uint(b)%WordBits)) != 0 {
				t.Fatalf("width %d: tail bit %d set", width, b)
			}
		}
		ix := &Index{width: width, words: words}
		bits := ix.Unpack(code, make([]bool, width))
		for d := 0; d < width; d++ {
			if bits[d] != (row[d] > thr[d]) {
				t.Fatalf("width %d: unpack bit %d mismatch", width, d)
			}
		}
	}
}

func TestKernelMatchesReference(t *testing.T) {
	kern := Kernel()
	rng := rand.New(rand.NewSource(9))
	for _, words := range []int{1, 2, 3, 7, 8, 9, 16, 17} {
		const n = 33
		codes := make([]uint64, n*words)
		q := make([]uint64, words)
		for i := range codes {
			codes[i] = rng.Uint64()
		}
		for i := range q {
			q[i] = rng.Uint64()
		}
		out := make([]int32, n)
		kern.HammingBlock(q, codes, words, out)
		for i := 0; i < n; i++ {
			want := hammingRef(q, codes[i*words:(i+1)*words], words)
			if out[i] != want {
				t.Fatalf("words=%d cand=%d: kernel %d, reference %d", words, i, out[i], want)
			}
		}
	}
}

func TestBuildThresholdsAreDimensionMeans(t *testing.T) {
	_, p, ix := buildRandom(t, "distmult", 6, 40, 3, 11)
	for d := 0; d < ix.Width(); d++ {
		var sum float64
		for e := 0; e < 40; e++ {
			sum += float64(p.Entity.Row(e)[d])
		}
		want := float32(sum / 40)
		if got := ix.Thresholds()[d]; got != want {
			t.Fatalf("threshold[%d] = %g, want mean %g", d, got, want)
		}
	}
	if ix.Words() != 1 || ix.Width() != 6 || ix.Rows() != 40 {
		t.Fatalf("geometry %d/%d/%d", ix.Words(), ix.Width(), ix.Rows())
	}
	if ix.Bytes() != 40*8 {
		t.Fatalf("Bytes() = %d", ix.Bytes())
	}
}

// TestSearchFullBudgetMatchesExact is the correctness anchor: with the
// candidate budget covering every entity, stage 2 rescores the whole
// table, so the approx result must equal the exact sweep bit for bit —
// for every model, on both sides. Any divergence would mean the rescore
// stage itself (not the prefilter) distorts scores or ordering.
func TestSearchFullBudgetMatchesExact(t *testing.T) {
	for _, name := range []string{"complex", "distmult", "transe"} {
		const entities, relations, k = 60, 4, 7
		m, p, ix := buildRandom(t, name, 8, entities, relations, 31)
		sc := NewScratch()
		for _, side := range []string{"tail", "head"} {
			for fix := 0; fix < 5; fix++ {
				rel := fix % relations
				fixRow, relRow := p.Entity.Row(fix), p.Relation.Row(rel)
				got, candidates, rescored, err := ix.Search(m, side, fixRow, relRow, p.Entity.Row, k, entities, nil, sc)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, side, err)
				}
				if candidates != entities || rescored != entities {
					t.Fatalf("%s/%s: candidates=%d rescored=%d, want %d", name, side, candidates, rescored, entities)
				}
				want := eval.TopK(entities, k, func(e int32) float32 {
					if side == "tail" {
						return m.ScoreRows(fixRow, relRow, p.Entity.Row(int(e)))
					}
					return m.ScoreRows(p.Entity.Row(int(e)), relRow, fixRow)
				}, nil)
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %d results, want %d", name, side, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s fix=%d: rank %d = %+v, exact %+v", name, side, fix, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSearchSkipFilters(t *testing.T) {
	m, p, ix := buildRandom(t, "complex", 4, 30, 2, 3)
	sc := NewScratch()
	full, _, _, err := ix.Search(m, "tail", p.Entity.Row(0), p.Relation.Row(0), p.Entity.Row, 5, 30, nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	banned := full[0].Entity
	res, candidates, rescored, err := ix.Search(m, "tail", p.Entity.Row(0), p.Relation.Row(0), p.Entity.Row, 5, 30,
		func(e int32) bool { return e == banned }, sc)
	if err != nil {
		t.Fatal(err)
	}
	if candidates != 30 || rescored != 29 {
		t.Fatalf("candidates=%d rescored=%d", candidates, rescored)
	}
	for _, r := range res {
		if r.Entity == banned {
			t.Fatalf("skip ignored: %d in results", banned)
		}
	}
	if res[0] != full[1] {
		t.Fatalf("filtered top %+v, want next exact %+v", res[0], full[1])
	}
}

func TestSearchDeterministicAndScratchReuse(t *testing.T) {
	m, p, ix := buildRandom(t, "transe", 12, 200, 4, 17)
	sc := NewScratch()
	var first []eval.ScoredEntity
	for trial := 0; trial < 5; trial++ {
		res, _, _, err := ix.Search(m, "tail", p.Entity.Row(9), p.Relation.Row(1), p.Entity.Row, 10, 32, nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = res
			continue
		}
		for i := range first {
			if res[i] != first[i] {
				t.Fatalf("trial %d rank %d: %+v != %+v", trial, i, res[i], first[i])
			}
		}
	}
	// A fresh scratch must agree with the reused one.
	res, _, _, err := ix.Search(m, "tail", p.Entity.Row(9), p.Relation.Row(1), p.Entity.Row, 10, 32, nil, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if res[i] != first[i] {
			t.Fatalf("fresh scratch rank %d: %+v != %+v", i, res[i], first[i])
		}
	}
}

func TestSearchErrors(t *testing.T) {
	m, p, ix := buildRandom(t, "distmult", 4, 10, 2, 1)
	sc := NewScratch()
	if _, _, _, err := ix.Search(m, "sideways", p.Entity.Row(0), p.Relation.Row(0), p.Entity.Row, 3, 10, nil, sc); err == nil {
		t.Fatal("bad side accepted")
	}
	if _, _, _, err := ix.Search(m, "tail", p.Entity.Row(0), p.Relation.Row(0), p.Entity.Row, 0, 10, nil, sc); err == nil {
		t.Fatal("k=0 accepted")
	}
	other := model.New("transe", 4)
	if _, _, _, err := ix.Search(other, "tail", p.Entity.Row(0), p.Relation.Row(0), p.Entity.Row, 3, 10, nil, sc); err == nil {
		t.Fatal("model mismatch accepted")
	}
	// Budget clamping: c < k and c > rows both normalize.
	if res, candidates, _, err := ix.Search(m, "tail", p.Entity.Row(0), p.Relation.Row(0), p.Entity.Row, 5, 1, nil, sc); err != nil || len(res) != 5 || candidates != 5 {
		t.Fatalf("c<k clamp: res=%d candidates=%d err=%v", len(res), candidates, err)
	}
	if _, candidates, _, err := ix.Search(m, "tail", p.Entity.Row(0), p.Relation.Row(0), p.Entity.Row, 3, 99, nil, sc); err != nil || candidates != 10 {
		t.Fatalf("c>rows clamp: candidates=%d err=%v", candidates, err)
	}
}

func TestBuildEmptyAndUnknown(t *testing.T) {
	m := model.New("complex", 4)
	ix, err := Build(m, 0, func(int) []float32 { panic("no rows") })
	if err != nil {
		t.Fatal(err)
	}
	if ix.Rows() != 0 {
		t.Fatalf("rows %d", ix.Rows())
	}
	sc := NewScratch()
	res, candidates, rescored, err := ix.Search(m, "tail", make([]float32, 8), make([]float32, 8), nil, 3, 10, nil, sc)
	if err != nil || res != nil || candidates != 0 || rescored != 0 {
		t.Fatalf("empty search: %v %v %d %d", res, err, candidates, rescored)
	}
	if _, err := composerFor(fakeModel{}); err == nil {
		t.Fatal("unknown model composed")
	}
}

// fakeModel exists only to hit the unknown-model path of composerFor.
type fakeModel struct{ model.Model }

func (fakeModel) Name() string { return "not-a-model" }
