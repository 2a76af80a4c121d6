package partition

import (
	"testing"

	"kgedist/internal/kg"
)

func testKG(t *testing.T, seed uint64) *kg.Dataset {
	t.Helper()
	d := kg.Generate(kg.GenConfig{
		Name:     "part-test",
		Entities: 400, Relations: 40, Triples: 6000,
		Communities: 8,
		Seed:        seed,
	})
	if err := d.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
	return d
}

func TestBuildValidatesOptions(t *testing.T) {
	d := testKG(t, 1)
	if _, err := Build(d, Options{Ranks: 0}); err == nil {
		t.Fatal("Ranks=0 accepted")
	}
	if _, err := Build(d, Options{Ranks: 2, Algo: "metis"}); err == nil {
		t.Fatal("unknown algo accepted")
	}
	if _, err := Build(d, Options{Ranks: 2, Slack: -1}); err == nil {
		t.Fatal("negative slack accepted")
	}
}

// Every row owned exactly once (the owner arrays guarantee "exactly one" by
// construction; here we pin in-range plus shard conservation: no training
// triple lost or duplicated).
func TestPlanConservation(t *testing.T) {
	d := testKG(t, 2)
	for _, algo := range []string{"mincut", "hash"} {
		for _, p := range []int{1, 2, 3, 4, 7, 8} {
			pl, err := Build(d, Options{Ranks: p, Algo: algo, Seed: 5})
			if err != nil {
				t.Fatalf("%s/p=%d: %v", algo, p, err)
			}
			if err := pl.Validate(); err != nil {
				t.Fatalf("%s/p=%d: %v", algo, p, err)
			}
			seen := map[kg.Triple]int{}
			total := 0
			for _, shard := range pl.Shards {
				total += len(shard)
				for _, tr := range shard {
					seen[tr]++
				}
			}
			if total != len(d.Train) {
				t.Fatalf("%s/p=%d: shards hold %d triples, train has %d", algo, p, total, len(d.Train))
			}
			for tr, n := range seen {
				if n != 1 {
					t.Fatalf("%s/p=%d: triple %+v placed %d times", algo, p, tr, n)
				}
			}
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	d := testKG(t, 3)
	for _, algo := range []string{"mincut", "hash"} {
		a, err := Build(d, Options{Ranks: 4, Algo: algo, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(d, Options{Ranks: 4, Algo: algo, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.EntityOwner {
			if a.EntityOwner[i] != b.EntityOwner[i] {
				t.Fatalf("%s: entity %d owner differs across identical builds", algo, i)
			}
		}
		for i := range a.RelationOwner {
			if a.RelationOwner[i] != b.RelationOwner[i] {
				t.Fatalf("%s: relation %d owner differs across identical builds", algo, i)
			}
		}
		for r := range a.Shards {
			if len(a.Shards[r]) != len(b.Shards[r]) {
				t.Fatalf("%s: shard %d size differs across identical builds", algo, r)
			}
			for i := range a.Shards[r] {
				if a.Shards[r][i] != b.Shards[r][i] {
					t.Fatalf("%s: shard %d triple %d differs across identical builds", algo, r, i)
				}
			}
		}
	}
}

func TestBalanceBound(t *testing.T) {
	d := testKG(t, 4)
	slack := 0.1
	for _, algo := range []string{"mincut", "hash"} {
		for _, p := range []int{2, 3, 5, 8} {
			pl, err := Build(d, Options{Ranks: p, Algo: algo, Seed: 1, Slack: slack})
			if err != nil {
				t.Fatal(err)
			}
			q := pl.Quality()
			if algo == "mincut" {
				// The mincut passes enforce the cap directly.
				if bound := BalanceBound(d.NumEntities, p, slack); q.MaxEntityShard > bound {
					t.Errorf("mincut p=%d: max entity shard %d exceeds bound %d", p, q.MaxEntityShard, bound)
				}
			}
			// The memory-scaling claim: every shard strictly smaller than the
			// full table (p >= 2).
			if q.MaxEntityShard >= d.NumEntities {
				t.Errorf("%s p=%d: a rank owns the full entity table (%d rows)", algo, p, q.MaxEntityShard)
			}
			// Triple shards are cap-enforced for both algorithms.
			if bound := BalanceBound(len(d.Train), p, slack); int(q.TripleBalance*float64(len(d.Train))/float64(p))-1 > bound {
				t.Errorf("%s p=%d: triple balance %.3f implies shard above bound", algo, p, q.TripleBalance)
			}
		}
	}
}

// The point of the greedy min-cut: strictly better locality than the
// hash baseline on community-structured graphs.
func TestMincutBeatsHash(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		d := testKG(t, seed)
		for _, p := range []int{2, 4, 8} {
			mc, err := Build(d, Options{Ranks: p, Algo: "mincut", Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			h, err := Build(d, Options{Ranks: p, Algo: "hash", Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			qm, qh := mc.Quality(), h.Quality()
			if qm.CutRatio > qh.CutRatio {
				t.Errorf("seed=%d p=%d: mincut cut ratio %.3f worse than hash %.3f",
					seed, p, qm.CutRatio, qh.CutRatio)
			}
			if qm.RemoteRowFraction > qh.RemoteRowFraction {
				t.Errorf("seed=%d p=%d: mincut remote-row fraction %.3f worse than hash %.3f",
					seed, p, qm.RemoteRowFraction, qh.RemoteRowFraction)
			}
		}
	}
}

func TestUnifiedIDSpace(t *testing.T) {
	d := testKG(t, 5)
	pl, err := Build(d, Options{Ranks: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Rows() != d.NumEntities+d.NumRelations {
		t.Fatalf("Rows() = %d, want %d", pl.Rows(), d.NumEntities+d.NumRelations)
	}
	if uid := pl.RelationUID(3); int(uid) != d.NumEntities+3 {
		t.Fatalf("RelationUID(3) = %d", uid)
	}
	// OwnedUIDs covers the unified space exactly once across ranks, and
	// Owner names the rank listing each row.
	covered := make([]int, pl.Rows())
	for rank := 0; rank < pl.Ranks; rank++ {
		prev := int32(-1)
		for _, uid := range pl.OwnedUIDs(rank) {
			if uid <= prev {
				t.Fatalf("rank %d: OwnedUIDs not ascending", rank)
			}
			if o := pl.Owner(uid); o != rank {
				t.Fatalf("Owner(%d) = %d, but rank %d lists it", uid, o, rank)
			}
			prev = uid
			covered[uid]++
		}
	}
	for uid, n := range covered {
		if n != 1 {
			t.Fatalf("unified row %d owned %d times", uid, n)
		}
	}
}

func TestPreferredRankMajority(t *testing.T) {
	pl := &Plan{
		Ranks: 3, NumEntities: 4, NumRelations: 2,
		EntityOwner:   []int32{0, 1, 2, 1},
		RelationOwner: []int32{2, 1},
	}
	cases := []struct {
		t    kg.Triple
		want int
	}{
		{kg.Triple{H: 0, R: 1, T: 3}, 1}, // r and t agree on 1
		{kg.Triple{H: 2, R: 0, T: 0}, 2}, // h and r agree on 2
		{kg.Triple{H: 1, R: 1, T: 1}, 1}, // unanimous
		{kg.Triple{H: 0, R: 1, T: 2}, 0}, // three-way tie: lowest rank
	}
	for _, c := range cases {
		if got := pl.PreferredRank(c.t); got != c.want {
			t.Errorf("PreferredRank(%+v) = %d, want %d", c.t, got, c.want)
		}
	}
	if n := pl.RemoteRows(kg.Triple{H: 0, R: 1, T: 2}, 1); n != 2 {
		t.Errorf("RemoteRows = %d, want 2", n)
	}
}

func TestSingleRankPlanIsTrivial(t *testing.T) {
	d := testKG(t, 6)
	for _, algo := range []string{"mincut", "hash"} {
		pl, err := Build(d, Options{Ranks: 1, Algo: algo, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := pl.Quality()
		if q.CutRatio != 0 || q.RemoteRowFraction != 0 {
			t.Fatalf("%s: single-rank plan has remote rows (cut=%.3f)", algo, q.CutRatio)
		}
		if len(pl.Shards[0]) != len(d.Train) {
			t.Fatalf("%s: single shard holds %d of %d triples", algo, len(pl.Shards[0]), len(d.Train))
		}
	}
}
