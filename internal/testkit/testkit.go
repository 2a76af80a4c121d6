// Package testkit is the statistical verification subsystem behind
// `make verify-stats` and cmd/kgeverify. It guards the contracts the
// paper's five dynamic strategies rely on, end to end:
//
//   - Golden-run convergence regression: seeded short training runs, one per
//     strategy combination, recorded as committed golden JSON (final loss,
//     MRR, the epoch-by-epoch loss curve with tolerance bands). A drift is
//     diagnosed down to the first diverging epoch and whether the exchange
//     collective differed — so a hot-path refactor that silently changes
//     training is caught before it merges.
//   - Statistical property checks: unbiasedness of the 2-bit quantizer and
//     random selection's keep probabilities under CLT-derived confidence
//     bounds over many seeded trials; relation-partition invariants checked exhaustively over
//     generated KGs; dynamic-strategy switch permanence; hardest-negative
//     ordering.
//   - The chaos soak harness: randomized-but-seeded
//     train -> crash -> shrink -> recover -> checkpoint -> serve-reload
//     loops asserting MRR within tolerance of a fault-free baseline and no
//     lost updates.
//
// Everything in this package is deterministic for a fixed seed: the checks
// either always pass or always fail for a given build, which is what makes
// them usable as a merge gate (see TESTING.md).
package testkit

import (
	"kgedist/internal/core"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
)

// GoldenDatasetName labels the generated dataset the golden scenarios train
// on; it is recorded in the golden file so a dataset change invalidates the
// goldens loudly instead of silently shifting every curve.
const GoldenDatasetName = "testkit-golden-v1"

// GoldenDataset returns the fixed synthetic KG all golden scenarios share.
// Small enough that a full scenario sweep stays in CI budget, structured
// enough (communities, Zipf relations) that every strategy has signal to
// work with.
func GoldenDataset() *kg.Dataset {
	return kg.Generate(kg.GenConfig{
		Name:     GoldenDatasetName,
		Entities: 300, Relations: 30, Triples: 5000,
		Communities: 6,
		Seed:        42,
	})
}

// GoldenBaseConfig is the shared short-run configuration the scenarios
// mutate. MaxEpochs is low (the harness pins the early trajectory, not
// converged quality) and StopPatience is high enough that every scenario
// runs the full horizon, so curves across scenarios are comparable.
func GoldenBaseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Dim = 8
	cfg.BaseLR = 0.02
	cfg.BatchSize = 500
	cfg.MaxEpochs = 8
	cfg.StopPatience = 20
	cfg.ValSample = 400
	cfg.TestSample = 100
	cfg.Seed = 7
	return cfg
}

// Scenario is one golden strategy combination: a name, a node count, and a
// mutation of the base config.
type Scenario struct {
	Name   string
	Nodes  int
	Mutate func(*core.Config)
}

// Scenarios returns the golden strategy matrix: the two static exchange
// baselines, each single strategy of the paper (DRS, RS, 1-bit, 2-bit, RP,
// SS), the full combination, and the partitioned sharded-table mode (alone
// and with the strategies it composes with). Order is stable; names are the
// golden-file keys.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "allreduce", Nodes: 2, Mutate: func(c *core.Config) {}},
		{Name: "allgather", Nodes: 2, Mutate: func(c *core.Config) {
			c.Comm = core.CommAllGather
		}},
		{Name: "drs", Nodes: 2, Mutate: func(c *core.Config) {
			c.Comm = core.CommDynamic
			c.ProbeEvery = 2
			c.Select = grad.SelectBernoulli
		}},
		{Name: "rs", Nodes: 2, Mutate: func(c *core.Config) {
			c.Comm = core.CommAllGather
			c.Select = grad.SelectBernoulli
		}},
		{Name: "1bit", Nodes: 2, Mutate: func(c *core.Config) {
			c.Comm = core.CommAllGather
			c.Quant = grad.OneBitMax
		}},
		{Name: "2bit", Nodes: 2, Mutate: func(c *core.Config) {
			c.Comm = core.CommAllGather
			c.Quant = grad.TwoBitTernary
		}},
		{Name: "rp", Nodes: 2, Mutate: func(c *core.Config) {
			c.RelationPartition = true
		}},
		{Name: "ss", Nodes: 2, Mutate: func(c *core.Config) {
			c.NegSamples = 4
			c.NegSelect = true
		}},
		{Name: "combined", Nodes: 2, Mutate: func(c *core.Config) {
			c.Comm = core.CommDynamic
			c.ProbeEvery = 2
			c.Select = grad.SelectBernoulli
			c.Quant = grad.OneBitMax
			c.RelationPartition = true
			c.NegSamples = 4
			c.NegSelect = true
		}},
		{Name: "part", Nodes: 3, Mutate: func(c *core.Config) {
			c.Partitioned = true
		}},
		{Name: "part-rs-ss", Nodes: 3, Mutate: func(c *core.Config) {
			c.Partitioned = true
			c.PartitionBy = "hash"
			c.Select = grad.SelectBernoulli
			c.NegSamples = 4
			c.NegSelect = true
		}},
		// Adaptive compression controller (DESIGN.md §13): default
		// hysteresis walks the ladder fp32 -> 2bit -> 1bit inside the
		// 8-epoch horizon, and the golden pins the per-epoch rung column at
		// zero tolerance, so a threshold or estimator change cannot move
		// the trajectory silently.
		{Name: "dyncomp", Nodes: 3, Mutate: func(c *core.Config) {
			c.Comm = core.CommDynamicCompress
		}},
	}
}

// RunScenario trains the scenario on the golden dataset and returns the
// result. d may be shared across calls (Train never mutates the dataset).
func RunScenario(sc Scenario, d *kg.Dataset) (*core.Result, error) {
	cfg := GoldenBaseConfig()
	sc.Mutate(&cfg)
	return core.Train(cfg, d, sc.Nodes)
}
