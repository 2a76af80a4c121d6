package mpi

import (
	"testing"

	"kgedist/internal/grad"
	"kgedist/internal/simnet"
)

// Collective micro-benchmarks. Each iteration runs a full World.Run (which
// costs goroutine spawns), so allocs/op is not zero here — the assertion
// that the per-round staging path is pooled lives in the alloc tests; these
// track the end-to-end cost and total garbage of one collective.

func benchWorld(p int) *World {
	return NewWorld(simnet.NewCluster(p, simnet.XC40Params()))
}

func BenchmarkAllReduceSum(b *testing.B) {
	const p, n = 4, 4096
	w := benchWorld(p)
	bufs := make([][]float32, p)
	for r := range bufs {
		bufs[r] = make([]float32, n)
	}
	b.ReportAllocs()
	b.SetBytes(4 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			if _, err := c.AllReduceSum(bufs[c.Rank()], "bench"); err != nil {
				b.Error(err)
			}
		})
	}
}

// The sparse exchange: payloads are freshly allocated inside the loop by
// contract (all-gather transfers ownership to the world), so this tracks
// the unavoidable wire-garbage floor of the all-gather path.
func BenchmarkAllGatherBytes(b *testing.B) {
	const p, n = 4, 2048
	w := benchWorld(p)
	b.ReportAllocs()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			payload := make([]byte, n)
			if _, _, err := c.AllGatherBytes(payload, "bench"); err != nil {
				b.Error(err)
			}
		})
	}
}

// The compressed owner-merge reduce-scatter (DESIGN.md §13) at the golden scenario's
// world size, batch-shaped encoded frames with partial row overlap.
func BenchmarkReduceScatterEncoded(b *testing.B) {
	const p, rows, width = 3, 256, 32
	encs := make([]*grad.Encoded, p)
	for r := 0; r < p; r++ {
		encs[r], _ = encGrad(r, rows, width, grad.OneBitMax, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := newWorld(p)
		w.Run(func(c *Comm) {
			var mg grad.Merger
			if _, _, err := c.ReduceScatterEncoded(encs[c.Rank()], rows, &mg, nil, "rse"); err != nil {
				b.Error(err)
			}
		})
	}
}
