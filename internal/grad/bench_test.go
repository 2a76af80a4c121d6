package grad

import (
	"testing"

	"kgedist/internal/xrand"
)

// Micro-benchmarks for the gradient codec hot path. Shapes mirror one
// training batch of the default config: 256 touched rows, width 32.
// Run via `make bench`; results land in BENCH_<date>.json.

const (
	benchRows  = 256
	benchWidth = 32
)

func benchGrad(rng *xrand.RNG) *SparseGrad {
	g := NewSparseGrad(benchWidth)
	fillGrad(g, benchRows, rng)
	return g
}

func BenchmarkQuantizeInto(b *testing.B) {
	for _, s := range []Scheme{OneBitMax, TwoBitTernary} {
		b.Run(s.String(), func(b *testing.B) {
			rng := xrand.New(1)
			g := benchGrad(rng)
			e := new(Encoded)
			QuantizeInto(e, g, s, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				QuantizeInto(e, g, s, rng)
			}
			b.ReportMetric(float64(benchRows*benchWidth)*float64(b.N)/b.Elapsed().Seconds(), "values/sec")
		})
	}
}

func BenchmarkDequantize(b *testing.B) {
	rng := xrand.New(1)
	g := benchGrad(rng)
	e := Quantize(g, OneBitMax, rng)
	dst := NewSparseGrad(benchWidth)
	Dequantize(e, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Clear()
		Dequantize(e, dst)
	}
}

func BenchmarkUnmarshalInto(b *testing.B) {
	g := benchGrad(xrand.New(1))
	buf := Quantize(g, OneBitMax, nil).Marshal()
	e := new(Encoded)
	if err := UnmarshalInto(e, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := UnmarshalInto(e, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	g := benchGrad(xrand.New(1))
	e := Quantize(g, OneBitMax, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := e.Marshal() // wire payload: deliberately fresh per call
		_ = buf
	}
}

// The per-batch accumulator cycle core/trainer.go runs: Clear, touch rows,
// read sorted indices.
func BenchmarkSparseGradCycle(b *testing.B) {
	g := NewSparseGrad(benchWidth)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Clear()
		for r := 0; r < benchRows; r++ {
			g.Row(int32(r))[0] = 1
		}
		_ = g.Indices()
	}
}

func BenchmarkSelect(b *testing.B) {
	rng := xrand.New(1)
	g := benchGrad(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillGrad(g, benchRows, rng)
		b.StartTimer()
		Select(g, SelectBernoulli, rng)
	}
}

// The controller's per-batch statistics pass (DESIGN.md §13): row norms plus
// the strided bucket histogram over one batch-shaped gradient.
func BenchmarkControllerObserve(b *testing.B) {
	g := benchGrad(xrand.New(1))
	c := NewController(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(g)
	}
	b.ReportMetric(float64(benchRows*benchWidth)*float64(b.N)/b.Elapsed().Seconds(), "values/sec")
}

// One compressed-domain hop merge with ~1/3 row overlap — the ring's
// steady-state work per reduce-scatter step.
func BenchmarkMergeInto(b *testing.B) {
	for _, s := range []Scheme{NoQuant, OneBitMax} {
		b.Run(s.String(), func(b *testing.B) {
			rng := xrand.New(1)
			ga := NewSparseGrad(benchWidth)
			gb := NewSparseGrad(benchWidth)
			for r := 0; r < benchRows; r++ {
				if r%3 != 1 { // rows ≡ 0 mod 3 overlap, others are unique
					row := ga.Row(int32(r))
					for j := range row {
						row[j] = float32(rng.NormFloat64())
					}
				}
				if r%3 != 2 {
					row := gb.Row(int32(r))
					for j := range row {
						row[j] = float32(rng.NormFloat64())
					}
				}
			}
			ea := Quantize(ga, s, rng)
			eb := Quantize(gb, s, rng)
			var m Merger
			m.MergeInto(ea, eb, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MergeInto(ea, eb, rng)
			}
		})
	}
}

// The per-row scale of OneBitAvg and TwoBitTernary, one row at a time and
// four rows side by side.
func BenchmarkAbsMean(b *testing.B) {
	g := benchGrad(xrand.New(1))
	rows := make([][]float32, 0, benchRows)
	g.ForEach(func(_ int32, row []float32) { rows = append(rows, row) })
	means := make([]float32, len(rows))
	b.Run("one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, row := range rows {
				means[k] = absMean(row)
			}
		}
	})
	b.Run("four", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rowMeans(OneBitAvg, rows, means)
		}
	})
}
