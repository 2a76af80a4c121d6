package model

import (
	"math"
	"testing"

	"kgedist/internal/kg"
	"kgedist/internal/xrand"
)

// randomTriples draws n triples over the params' tables; every fifth is a
// self-loop (h == t), and ids repeat, so the same row fills many lanes.
func randomTriples(p *Params, n int, rng *xrand.RNG) []kg.Triple {
	out := make([]kg.Triple, n)
	for i := range out {
		tr := kg.Triple{
			H: int32(rng.Intn(p.Entity.Rows)),
			R: int32(rng.Intn(p.Relation.Rows)),
			T: int32(rng.Intn(p.Entity.Rows)),
		}
		if i%5 == 0 {
			tr.T = tr.H
		}
		out[i] = tr
	}
	return out
}

// Batch.Score is bit-for-bit one ScoreRows call per triple for every model,
// on dimensions the ComplEx kernel takes and refuses, across its 8-triple
// groups, with special floats in the rows.
func TestBatchBitEqualsScoreRows(t *testing.T) {
	var b Batch
	for _, name := range allModels {
		for _, dim := range []int{1, 7, 8, 32, 36} {
			m := New(name, dim)
			for _, n := range []int{0, 1, 7, 8, 9, 17, 64, 129} {
				for _, specialEvery := range []int{0, 5} {
					rng := xrand.New(uint64(dim*4096 + n*2 + specialEvery))
					p := NewParams(m, 23, 3)
					fillRows(p.Entity.Data, rng, specialEvery)
					fillRows(p.Relation.Data, rng, specialEvery)
					triples := randomTriples(p, n, rng)
					got := b.ScoreTriples(m, p, triples)
					if len(got) != n {
						t.Fatalf("%s: %d scores for %d triples", name, len(got), n)
					}
					for i, tr := range triples {
						want := m.Score(p, tr)
						if math.Float32bits(got[i]) != math.Float32bits(want) {
							t.Fatalf("%s dim %d triple %d of %d %+v: batch %x (%g), ScoreRows %x (%g)",
								name, dim, i, n, tr, math.Float32bits(got[i]), got[i], math.Float32bits(want), want)
						}
					}
				}
			}
		}
	}
}

func TestHardestFirstWinsTie(t *testing.T) {
	nan := float32(math.NaN())
	for _, c := range []struct {
		scores []float32
		want   int
	}{
		{[]float32{1}, 0},
		{[]float32{1, 2, 2}, 1},
		{[]float32{3, 1, 3}, 0},
		{[]float32{-1, -0.5, -2}, 1},
		{[]float32{nan, 1, 2}, 0}, // nothing compares above a NaN first
		{[]float32{0, nan, 1}, 2},
	} {
		if got := Hardest(c.scores); got != c.want {
			t.Errorf("Hardest(%v) = %d, want %d", c.scores, got, c.want)
		}
	}
}

// The trainer scores every batch through a Batch, and the link-prediction
// sweep calls ComplEx.ScoreBlock once per side per test triple: neither may
// allocate once warm, at a dimension the kernel takes with and without a Go
// tail and at a wide one (d = 512 used to take a heap buffer).
func TestBatchAndComplExScoreBlockAllocFree(t *testing.T) {
	for _, dim := range []int{8, 32, 512} {
		m := NewComplEx(dim)
		p := testParams(m, 200, 4, 7)
		triples := randomTriples(p, 37, xrand.New(3))
		var b Batch
		b.ScoreTriples(m, p, triples)
		if allocs := testing.AllocsPerRun(100, func() { b.ScoreTriples(m, p, triples) }); allocs != 0 {
			t.Errorf("d=%d: Batch allocates %.1f times per batch", dim, allocs)
		}
		fixed, rel := p.Entity.Row(3), p.Relation.Row(1)
		out := make([]float32, 133)
		slab := p.Entity.Data[:len(out)*m.Width()]
		for _, side := range []Side{Head, Tail} {
			if allocs := testing.AllocsPerRun(100, func() { m.ScoreBlock(side, fixed, rel, slab, out, noFloor) }); allocs != 0 {
				t.Errorf("d=%d: ComplEx.ScoreBlock side %d allocates %.1f times per call", dim, side, allocs)
			}
		}
	}
}
