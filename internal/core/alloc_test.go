package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"kgedist/internal/grad"
	"kgedist/internal/mpi"
	"kgedist/internal/simnet"
)

// TestTrainStepAllocs pins the heap allocations of the training step in each
// exchange mode: the per-batch stage, score, gradient, exchange and
// optimizer apply, and the per-triple body between them. Each mode trains
// three runs: 20 epochs at batch 125 and at batch 250, and 10 epochs at
// batch 125. Over the first two the epochs are the same, so the Mallocs
// difference over the rank-batch difference is the cost of one rank-batch,
// with every per-run and per-epoch allocation cancelled out. Over the first
// and the third the batching is the same, so the difference over the
// triples trained bounds the cost of one triple. The per-batch pins are the
// counts measured on this tree with slack for sync.Pool misses (a buffer Put
// on one P is invisible to a Get on another until it reaches the shared
// list); one planted allocation per batch on any rank adds a whole
// allocation per rank-batch and fails them, and one per triple fails the
// per-triple bound.
func TestTrainStepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains twelve 4-rank runs")
	}
	if raceBuild {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	const nodes, epochs, small, large = 4, 20, 125, 250
	// The per-epoch validation, barriers and statistics amortize to well
	// under this per trained triple.
	const maxPerTriple = 0.25
	d := testDataset()
	for _, mode := range []struct {
		name        string
		set         func(*Config)
		maxPerBatch float64
	}{
		// The all-reduce step allocates nothing; the all-gather one makes
		// the wire payloads the ring shares (two frames, the result
		// slices); dyncomp's fp32 warm-up rides pooled frames; the
		// partitioned one hands AllToAllRows result slices it owns, so it
		// allocates nothing either.
		{"allreduce", func(*Config) {}, 0.6},
		{"allgather-1bit", func(c *Config) { c.Comm, c.Quant = CommAllGather, grad.OneBitMax }, 8.5},
		{"dyncomp", func(c *Config) { c.Comm = CommDynamicCompress }, 0.75},
		{"partitioned", func(c *Config) { c.Partitioned = true }, 0.5},
	} {
		t.Run(mode.name, func(t *testing.T) {
			run := func(batch, epochs int) (mallocs uint64, rankBatches, triples int) {
				cfg := testConfig()
				cfg.BatchSize = batch
				cfg.MaxEpochs = epochs
				cfg.StopPatience = epochs + 1
				cfg.Tolerance = epochs + 1
				mode.set(&cfg)
				// A collection empties every pool; that is GC timing, not
				// the steady state pinned here.
				runtime.GC()
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, tr, err := train(cfg, d, mpi.NewWorld(simnet.NewCluster(nodes, simnet.XC40Params())))
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if res.Epochs != epochs {
					t.Fatalf("batch %d trained %d epochs, want %d", batch, res.Epochs, epochs)
				}
				for _, s := range tr.shards {
					triples += epochs * tr.batchesPerEpoch * min(batch, len(s))
				}
				return after.Mallocs - before.Mallocs, nodes * epochs * tr.batchesPerEpoch, triples
			}
			ms, bs, ts := run(small, epochs)
			ml, bl, _ := run(large, epochs)
			mh, _, th := run(small, epochs/2)
			perBatch := (float64(ms) - float64(ml)) / float64(bs-bl)
			perTriple := (float64(ms) - float64(mh)) / float64(ts-th)
			t.Logf("%.2f allocations per rank-batch, %.3f per triple", perBatch, perTriple)
			if perBatch > mode.maxPerBatch {
				t.Errorf("%.2f allocations per rank-batch, want ≤ %v", perBatch, mode.maxPerBatch)
			}
			if perTriple > maxPerTriple {
				t.Errorf("%.3f allocations per trained triple, want ≤ %v", perTriple, maxPerTriple)
			}
		})
	}
}
