package core

import "testing"

// Row-exchange cost, end to end: one epoch of sharded-table training (pull
// remote rows, local SGD, push gradient rows, owner aggregation) next to
// the same epoch replicated. The allocs/op column is a diagnostic;
// TestTrainStepAllocs pins the per-batch share of it (5.9 allocations per
// rank-batch partitioned, 0 replicated all-reduce).

func BenchmarkPartitionedTrainEpoch(b *testing.B) {
	d := testDataset()
	cfg := testConfig()
	cfg.Partitioned = true
	cfg.MaxEpochs = 1
	cfg.StopPatience = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(cfg, d, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplicatedTrainEpoch(b *testing.B) {
	d := testDataset()
	cfg := testConfig()
	cfg.MaxEpochs = 1
	cfg.StopPatience = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(cfg, d, 4); err != nil {
			b.Fatal(err)
		}
	}
}
