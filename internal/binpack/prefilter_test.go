package binpack

import (
	"cmp"
	"slices"
	"testing"

	"kgedist/internal/model"
	"kgedist/internal/xrand"
)

// bruteTopC is the stage-1 oracle: every entity's bit-by-bit Hamming
// distance to q, sorted (distance asc, id asc), the first c ids returned
// in ascending id order.
func bruteTopC(q, codes []uint64, words, c int) []int32 {
	rows := len(codes) / words
	ids := make([]int32, rows)
	dist := make([]int32, rows)
	for e := range ids {
		ids[e] = int32(e)
		dist[e] = hammingRef(q, codes[e*words:(e+1)*words], words)
	}
	slices.SortFunc(ids, func(a, b int32) int {
		return cmp.Or(cmp.Compare(dist[a], dist[b]), cmp.Compare(a, b))
	})
	top := ids[:c]
	slices.Sort(top)
	return top
}

// TestPrefilterSelectMatchesBruteForce holds Search's stage-1 candidate
// set to the (distance asc, id asc) top-c over 1-, 3- and 9-word codes,
// budgets from k to past the table, an index whose codes all tie, and
// the nesting of a small budget's set in a larger one's.
func TestPrefilterSelectMatchesBruteForce(t *testing.T) {
	const rows, relations, k = 300, 3, 10
	cases := []struct {
		name  string
		dim   int // width 16, 64, 130, 517: 1, 1, 3 and 9 words
		equal bool
	}{
		{"distmult", 16, false},
		{"transe", 64, false},
		{"complex", 65, false},
		{"distmult", 517, false},
		{"transe", 64, true},
	}
	for _, tc := range cases {
		m := model.New(tc.name, tc.dim)
		p := model.NewParams(m, rows, relations)
		p.Init(m, xrand.New(uint64(tc.dim)))
		entityRow := p.Entity.Row
		if tc.equal {
			entityRow = func(int) []float32 { return p.Entity.Row(0) }
		}
		ix, err := Build(m, rows, entityRow)
		if err != nil {
			t.Fatal(err)
		}
		words := ix.Words()
		codes := make([]uint64, 0, rows*words)
		for e := 0; e < rows; e++ {
			codes = append(codes, ix.Code(e)...)
		}
		sc := NewScratch()
		sets := map[int][]int32{}
		for _, c := range []int{k, 64, 100, 256, rows - 1, rows, rows + 7} {
			for fix := 0; fix < 4; fix++ {
				side := [2]string{"tail", "head"}[fix%2]
				_, candidates, _, err := ix.Search(m, side, p.Entity.Row(fix), p.Relation.Row(fix%relations), entityRow, k, c, nil, sc)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteTopC(sc.code, codes, words, min(c, rows))
				if candidates != len(want) || !slices.Equal(sc.cand, want) {
					t.Fatalf("%s dim=%d equal=%v c=%d fix=%d: stage 1 kept %d %v, brute force %v",
						tc.name, tc.dim, tc.equal, c, fix, candidates, sc.cand, want)
				}
				if fix == 0 {
					sets[c] = append([]int32(nil), sc.cand...)
				}
			}
		}
		in256 := map[int32]bool{}
		for _, e := range sets[256] {
			in256[e] = true
		}
		for _, e := range sets[64] {
			if !in256[e] {
				t.Fatalf("%s dim=%d equal=%v: top-64 candidate %d missing from top-256", tc.name, tc.dim, tc.equal, e)
			}
		}
	}
}

// TestSearchSteadyStateAllocs pins a warmed Search to the allocations of
// its response (accK.Results' slice and sort): the distance, histogram,
// candidate and gather-slab scratch must be reused, not reallocated per
// query. The budget spans 16 rescoreChunks, so stage 2 runs its gathered
// block rescore chunk after chunk under a rising floor.
func TestSearchSteadyStateAllocs(t *testing.T) {
	const c = 1024
	m, p, ix := buildRandom(t, "transe", 64, 5000, 4, 7)
	sc := NewScratch()
	search := func() {
		_, _, rescored, err := ix.Search(m, "tail", p.Entity.Row(3), p.Relation.Row(2), p.Entity.Row, 10, c, nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		if rescored != c {
			t.Fatalf("rescored %d of %d candidates", rescored, c)
		}
	}
	search()
	if allocs := testing.AllocsPerRun(50, search); allocs > 3 {
		t.Fatalf("warmed Search allocates %v times per query, want at most 3 (the response)", allocs)
	}
}
