package partition

import (
	"fmt"
	"testing"

	"kgedist/internal/kg"
)

func benchKG(b *testing.B) *kg.Dataset {
	b.Helper()
	return kg.Generate(kg.GenConfig{
		Name:     "part-bench",
		Entities: 5000, Relations: 200, Triples: 60000,
		Communities: 20,
		Seed:        11,
	})
}

func BenchmarkBuild(b *testing.B) {
	d := benchKG(b)
	for _, algo := range []string{"mincut", "hash"} {
		for _, p := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/p=%d", algo, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Build(d, Options{Ranks: p, Algo: algo, Seed: 3}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkQuality(b *testing.B) {
	d := benchKG(b)
	pl, err := Build(d, Options{Ranks: 8, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pl.Quality()
	}
}
