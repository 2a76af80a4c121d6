package model

import (
	"testing"

	"kgedist/internal/xrand"
)

// Per-model kernel benchmarks: one scored triple and one score+grad step
// over the parameter rows, the inner loop of training and serving. The
// triples/sec metric is what the paper's throughput plots are built from.

func benchSetup(name string) (Model, *Params) {
	m := New(name, 64)
	p := NewParams(m, 1000, 20)
	p.Init(m, xrand.New(1))
	return m, p
}

// benchRows resolves the i-th benchmark triple's rows.
func benchRows(p *Params, i int) (h, r, t []float32) {
	return p.Entity.Row(i % 1000), p.Relation.Row(i % 20), p.Entity.Row((i + 7) % 1000)
}

func BenchmarkScore(b *testing.B) {
	for _, name := range []string{"complex", "distmult", "transe"} {
		b.Run(name, func(b *testing.B) {
			m, p := benchSetup(name)
			b.ReportAllocs()
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += m.ScoreRows(benchRows(p, i))
			}
			_ = sink
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "triples/sec")
		})
	}
}

func BenchmarkScoreGradStep(b *testing.B) {
	for _, name := range []string{"complex", "distmult", "transe"} {
		b.Run(name, func(b *testing.B) {
			m, p := benchSetup(name)
			w := m.Width()
			gh, gr, gt := make([]float32, w), make([]float32, w), make([]float32, w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, r, t := benchRows(p, i)
				sc := m.ScoreRows(h, r, t)
				m.AccumulateScoreGradRows(h, r, t, LogisticLossGrad(sc, 1), gh, gr, gt)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "triples/sec")
		})
	}
}

// BenchmarkScoreBlock times the 1-vs-N kernels under the exact predict sweep
// and link-prediction eval: one (fixed, relation) pair against the whole
// 1000-row table, per side. rows is a per-row ScoreRows loop over the same
// table, the cost the block kernel replaces.
func BenchmarkScoreBlock(b *testing.B) {
	const tile = 1000
	for _, name := range []string{"transe", "complex", "distmult"} {
		m, p := benchSetup(name)
		bs := m.(BlockScorer)
		w := m.Width()
		slab := p.Entity.Data[:tile*w]
		fixed, rel := p.Entity.Row(999), p.Relation.Row(3)
		out := make([]float32, tile)
		for side, sideName := range []string{Head: "head", Tail: "tail"} {
			side := Side(side)
			b.Run(name+"/"+sideName, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bs.ScoreBlock(side, fixed, rel, slab, out, noFloor)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tile), "ns/row")
			})
		}
		b.Run(name+"/rows", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scoreBlockRows(m, Tail, fixed, rel, slab, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tile), "ns/row")
		})
	}
}

// BenchmarkBatchScore times the trainer's scoring shape for ComplEx at
// d = 32: 1024 random triples over a 12 000-entity table, scored one Score
// call each (rows) or gathered into one Batch (batch, the gather included).
func BenchmarkBatchScore(b *testing.B) {
	m := NewComplEx(32)
	p := NewParams(m, 12000, 1200)
	p.Init(m, xrand.New(1))
	triples := randomTriples(p, 1024, xrand.New(2))
	perTriple := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(triples)), "ns/triple")
	}
	b.Run("rows", func(b *testing.B) {
		var sink float32
		for i := 0; i < b.N; i++ {
			for _, tr := range triples {
				sink += m.Score(p, tr)
			}
		}
		_ = sink
		perTriple(b)
	})
	b.Run("batch", func(b *testing.B) {
		var batch Batch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch.ScoreTriples(m, p, triples)
		}
		perTriple(b)
	})
}
