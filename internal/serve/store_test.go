package serve

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"kgedist/internal/model"
	"kgedist/internal/xrand"
)

// writeCheckpoint trains nothing: it saves randomly initialized parameters,
// which is all serving correctness tests need.
func writeCheckpoint(t *testing.T, dir, name string, dim, entities, relations int, seed uint64) string {
	t.Helper()
	m := model.New(name, dim)
	p := model.NewParams(m, entities, relations)
	p.Init(m, xrand.New(seed))
	path := filepath.Join(dir, "ck.kge")
	if err := model.SaveCheckpoint(path, m, p); err != nil {
		t.Fatalf("save checkpoint: %v", err)
	}
	return path
}

// writeClusteredCheckpoint is writeCheckpoint over ClusteredInit rows (one
// cluster per 50 entities): the geometry a trained table and the serving
// benchmark have, where most rows lie far from a query's answers.
func writeClusteredCheckpoint(t *testing.T, dir, name string, dim, entities, relations int, seed uint64) string {
	t.Helper()
	m := model.New(name, dim)
	p := model.NewParams(m, entities, relations)
	p.ClusteredInit(m, max(1, entities/50), 0.25, xrand.New(seed))
	path := filepath.Join(dir, "ck.kge")
	if err := model.SaveCheckpoint(path, m, p); err != nil {
		t.Fatalf("save checkpoint: %v", err)
	}
	return path
}

func TestOpenStoreMatchesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := writeCheckpoint(t, dir, "complex", 4, 37, 5, 3)
	m, p, err := model.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// Shard grain smaller than the entity count forces multiple shards.
	st, err := OpenStore(path, 10)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if st.NumEntities() != 37 || st.NumRelations() != 5 {
		t.Fatalf("shape %d/%d", st.NumEntities(), st.NumRelations())
	}
	if st.NumShards() != 4 {
		t.Fatalf("shards = %d, want 4", st.NumShards())
	}
	for e := 0; e < 37; e++ {
		row := st.EntityRow(e)
		want := p.Entity.Row(e)
		for i := range want {
			if row[i] != want[i] {
				t.Fatalf("entity %d row differs at %d", e, i)
			}
		}
	}
	for r := 0; r < 5; r++ {
		row := st.RelationRow(r)
		want := p.Relation.Row(r)
		for i := range want {
			if row[i] != want[i] {
				t.Fatalf("relation %d row differs at %d", r, i)
			}
		}
	}
	// Store scoring must agree with the model over the training Params.
	for _, tr := range []struct{ h, r, tt int }{{0, 0, 1}, {36, 4, 0}, {17, 2, 33}} {
		got := st.Score(tr.h, tr.r, tr.tt)
		want := m.ScoreRows(p.Entity.Row(tr.h), p.Relation.Row(tr.r), p.Entity.Row(tr.tt))
		if math.Abs(float64(got-want)) > 1e-6 {
			t.Fatalf("score(%v) = %g, want %g", tr, got, want)
		}
	}
	info := st.Info()
	if info.Model != "complex" || info.Dim != 4 || info.CRC == "" {
		t.Fatalf("info %+v", info)
	}
}

func TestOpenStoreRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := writeCheckpoint(t, dir, "distmult", 4, 8, 2, 1)
	// Corrupt one byte in place.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path, 0); err == nil {
		t.Fatal("corrupt checkpoint became a live store")
	}
}

func TestStoreNeighbors(t *testing.T) {
	dir := t.TempDir()
	path := writeCheckpoint(t, dir, "distmult", 8, 50, 3, 5)
	st, err := OpenStore(path, 7) // ragged shards
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for _, metric := range []string{"cosine", "dot"} {
		nb, err := st.Neighbors(13, 5, metric)
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		if len(nb) != 5 {
			t.Fatalf("%s: %d neighbors", metric, len(nb))
		}
		// Brute-force oracle.
		sim := cosine
		if metric == "dot" {
			sim = dot
		}
		q := st.EntityRow(13)
		bestE, bestS := -1, float32(math.Inf(-1))
		for e := 0; e < 50; e++ {
			if e == 13 {
				continue
			}
			if s := sim(q, st.EntityRow(e)); s > bestS {
				bestE, bestS = e, s
			}
		}
		if int(nb[0].Entity) != bestE {
			t.Fatalf("%s: top neighbor %d (%g), oracle %d (%g)", metric, nb[0].Entity, nb[0].Score, bestE, bestS)
		}
		for i := 1; i < len(nb); i++ {
			if nb[i].Score > nb[i-1].Score {
				t.Fatalf("%s: neighbors not sorted: %v", metric, nb)
			}
		}
		for _, n := range nb {
			if n.Entity == 13 {
				t.Fatalf("%s: query entity returned as its own neighbor", metric)
			}
		}
	}
	if _, err := st.Neighbors(999, 3, "cosine"); err == nil {
		t.Fatal("out-of-range entity accepted")
	}
	if _, err := st.Neighbors(1, 3, "hamming"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}
