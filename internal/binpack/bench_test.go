package binpack

import (
	"fmt"
	"testing"

	"kgedist/internal/model"
	"kgedist/internal/xrand"
)

// BenchmarkHammingBlock measures the raw packed-scoring kernel at serving
// shapes: words/row = 2 is ComplEx dim 64, 8 is dim 256.
func BenchmarkHammingBlock(b *testing.B) {
	kern := Kernel()
	for _, words := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			const n = 512
			codes := make([]uint64, n*words)
			q := make([]uint64, words)
			rng := xrand.New(1)
			for i := range codes {
				codes[i] = rng.Uint64()
			}
			for i := range q {
				q[i] = rng.Uint64()
			}
			out := make([]int32, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kern.HammingBlock(q, codes, words, out)
			}
			b.SetBytes(int64(n * words * 8))
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "codes/sec")
		})
	}
}

// BenchmarkSearchVsExact pits the two-stage approx query against the full
// exact sweep on one goroutine — the per-query work ratio the serving
// speedup comes from. The transe case is the serve_approx shape (50 000 ×
// 64 rows in 512 clusters, k = 10, c = 1024), where stage 2's block
// rescore stops rows under the top-k floor; complex keeps every score exact.
func BenchmarkSearchVsExact(b *testing.B) {
	const entities, relations, dim, k, c = 50000, 8, 64, 10, 1024
	for _, tc := range []struct {
		name     string
		clusters int
	}{{"complex", 64}, {"transe", 512}} {
		m := model.New(tc.name, dim)
		p := model.NewParams(m, entities, relations)
		p.ClusteredInit(m, tc.clusters, 0.25, xrand.New(7))
		ix, err := BuildFromParams(m, p)
		if err != nil {
			b.Fatal(err)
		}
		fixRow, relRow := p.Entity.Row(3), p.Relation.Row(2)

		b.Run(tc.name+"/approx", func(b *testing.B) {
			sc := NewScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := ix.Search(m, "tail", fixRow, relRow, p.Entity.Row, k, c, nil, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/exact", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var best float32
				for e := 0; e < entities; e++ {
					if s := m.ScoreRows(fixRow, relRow, p.Entity.Row(e)); s > best {
						best = s
					}
				}
				_ = best
			}
		})
	}
}

// BenchmarkBuild measures index construction — the cost added to every
// store open and hot reload.
func BenchmarkBuild(b *testing.B) {
	const entities, dim = 50000, 64
	m := model.New("complex", dim)
	p := model.NewParams(m, entities, 4)
	p.Init(m, xrand.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFromParams(m, p); err != nil {
			b.Fatal(err)
		}
	}
}
