// Package ps implements a synchronous parameter-server trainer — the
// alternative distributed-training architecture the paper's introduction
// describes and argues against ("the main drawback of this approach is the
// communication bottleneck to the server... more than one server creates an
// all-to-all communication pattern that is not efficient").
//
// It exists as a measurable baseline: server nodes hold shards of the
// embedding matrices; worker nodes hold no replica and, per batch, pull the
// rows their triples touch and push gradient rows back. Every transfer is
// charged to the shared simnet cluster, so the server-bottleneck effect is
// directly visible next to the all-reduce/all-gather numbers from
// internal/core.
package ps

import (
	"fmt"
	"sync"

	"kgedist/internal/eval"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/opt"
	"kgedist/internal/simnet"
	"kgedist/internal/xrand"
)

// Config assembles a parameter-server run. Mirrors core.Config where the
// concepts coincide.
type Config struct {
	// ModelName and Dim select the KGE model.
	ModelName string
	Dim       int
	// OptimizerName is applied server-side (the classic PS design).
	OptimizerName string
	// BatchSize is the per-worker batch size.
	BatchSize int
	// BaseLR is scaled by min(LRScaleCap, workers), as in core.
	BaseLR     float64
	LRScaleCap int
	// MaxEpochs bounds training (PS runs have no plateau logic; the
	// baseline is used for fixed-epoch comparisons).
	MaxEpochs int
	// NegSamples per positive.
	NegSamples int
	// TestSample subsamples the final MRR ranking.
	TestSample int
	Seed       uint64
}

// DefaultConfig mirrors core.DefaultConfig for the shared fields.
func DefaultConfig() Config {
	return Config{
		ModelName:     "complex",
		Dim:           32,
		OptimizerName: "adam",
		BatchSize:     2000,
		BaseLR:        0.01,
		LRScaleCap:    4,
		MaxEpochs:     30,
		NegSamples:    1,
		TestSample:    150,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !model.IsKnownModel(c.ModelName) {
		return fmt.Errorf("ps: unknown model %q (want complex, distmult or transe)", c.ModelName)
	}
	if !opt.IsKnownOptimizer(c.OptimizerName) {
		return fmt.Errorf("ps: unknown optimizer %q (want adam or sgd)", c.OptimizerName)
	}
	if c.Dim <= 0 || c.BatchSize <= 0 || c.MaxEpochs <= 0 || c.NegSamples < 1 {
		return fmt.Errorf("ps: invalid config %+v", c)
	}
	return nil
}

// Result summarizes a parameter-server run.
type Result struct {
	Workers    int
	Servers    int
	Epochs     int
	TotalHours float64
	CommBytes  int64
	CommHours  float64
	TCA        float64
	MRR        float64
	// PullBytes and PushBytes split the volume by direction.
	PullBytes int64
	PushBytes int64
}

// Train runs synchronous parameter-server training with the given worker
// and server counts. Workers and servers are distinct simulated nodes
// (workers+servers clocks total).
func Train(cfg Config, d *kg.Dataset, workers, servers int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 || servers < 1 {
		return nil, fmt.Errorf("ps: need at least 1 worker and 1 server, got %d/%d", workers, servers)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(d.Train) == 0 {
		return nil, fmt.Errorf("ps: empty training split")
	}

	m := model.New(cfg.ModelName, cfg.Dim)
	width := m.Width()
	cluster := simnet.NewCluster(workers+servers, simnet.XC40Params())

	// Authoritative parameters live on the servers; row r of the entity
	// matrix belongs to server r % servers (likewise relations).
	params := model.NewParams(m, d.NumEntities, d.NumRelations)
	params.Init(m, xrand.New(cfg.Seed).Split(0))
	entOpt := opt.NewByName(cfg.OptimizerName, d.NumEntities, width)
	relOpt := opt.NewByName(cfg.OptimizerName, d.NumRelations, width)

	baseRng := xrand.New(cfg.Seed)
	shuffled := append([]kg.Triple(nil), d.Train...)
	baseRng.Split(77).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	shards := kg.UniformPartition(shuffled, workers)
	maxShard := 0
	for _, s := range shards {
		if len(s) > maxShard {
			maxShard = len(s)
		}
	}
	batches := (maxShard + cfg.BatchSize - 1) / cfg.BatchSize
	lr := float32(opt.ScaledLR(cfg.BaseLR, workers, cfg.LRScaleCap))

	var pullBytes, pushBytes int64
	var mu sync.Mutex

	res := &Result{Workers: workers, Servers: servers}
	type batchGrad struct {
		ent, rel *grad.SparseGrad
	}
	for epoch := 1; epoch <= cfg.MaxEpochs; epoch++ {
		for b := 0; b < batches; b++ {
			grads := make([]batchGrad, workers)
			var wg sync.WaitGroup
			for wID := 0; wID < workers; wID++ {
				wg.Add(1)
				go func(wID int) {
					defer wg.Done()
					shard := shards[wID]
					if len(shard) == 0 {
						grads[wID] = batchGrad{grad.NewSparseGrad(width), grad.NewSparseGrad(width)}
						return
					}
					rng := xrand.New(cfg.Seed).Split(uint64(1000*epoch + 10*b + wID))
					sampler := model.NewNegSampler(d.NumEntities, rng)
					entG := grad.NewSparseGrad(width)
					relG := grad.NewSparseGrad(width)
					n := cfg.BatchSize
					if len(shard) < n {
						n = len(shard)
					}
					var flops float64
					for i := 0; i < n; i++ {
						pos := shard[(b*cfg.BatchSize+i)%len(shard)]
						flops += accumulate(m, params, pos, 1, entG, relG)
						for k := 0; k < cfg.NegSamples; k++ {
							neg := sampler.Corrupt(pos)
							flops += accumulate(m, params, neg, -1, entG, relG)
						}
					}
					cluster.AddCompute(wID, flops)
					// Pull cost: the worker fetched every touched row once
					// (entities + relations), response bytes dominate.
					pulled := int64((entG.Len() + relG.Len()) * (4 + 4*width))
					mu.Lock()
					pullBytes += pulled
					pushBytes += pulled // gradient push mirrors the pull volume
					mu.Unlock()
					grads[wID] = batchGrad{entG, relG}
				}(wID)
			}
			wg.Wait()

			// Charge the server-side communication: each worker exchanges
			// its rows with every server holding them. The bottleneck is
			// the busiest server: total bytes / servers, serialized there.
			var roundBytes int64
			var msgs int64
			for _, g := range grads {
				roundBytes += int64((g.ent.Len() + g.rel.Len()) * (4 + 4*width))
				msgs += 2 * int64(servers) // one pull + one push per server
			}
			roundBytes *= 2 // pull + push
			perServer := roundBytes / int64(servers)
			p := cluster.Params()
			cost := float64(msgs)*p.Alpha/float64(workers+servers) + float64(perServer)*p.Beta
			cluster.Collective(cost, roundBytes, msgs, "ps")

			// Servers apply the aggregated gradients (averaged over
			// workers), one optimizer step per batch.
			entAgg := grad.NewSparseGrad(width)
			relAgg := grad.NewSparseGrad(width)
			for _, g := range grads {
				idx, flat := g.ent.Flatten()
				entAgg.AddFlat(idx, flat)
				idx, flat = g.rel.Flatten()
				relAgg.AddFlat(idx, flat)
			}
			inv := 1 / float32(workers)
			apply := func(o opt.Optimizer, mtx interface {
				Row(int) []float32
			}, agg *grad.SparseGrad) {
				if agg.Len() == 0 {
					return
				}
				o.BeginStep()
				agg.ForEach(func(id int32, row []float32) {
					for i := range row {
						row[i] *= inv
					}
					o.ApplyRow(id, mtx.Row(int(id)), row, lr)
				})
			}
			apply(entOpt, params.Entity, entAgg)
			apply(relOpt, params.Relation, relAgg)
			// Server apply compute, charged to the server clocks.
			applyFlops := float64((entAgg.Len() + relAgg.Len()) * width * 12)
			for s := 0; s < servers; s++ {
				cluster.AddCompute(workers+s, applyFlops/float64(servers))
			}
		}
		res.Epochs = epoch
	}

	filter := kg.NewFilterIndex(d)
	evalRng := xrand.New(cfg.Seed + 999)
	lp := eval.LinkPrediction(m, params, d, filter, cfg.TestSample, evalRng)
	tc := eval.TripleClassification(m, params, d, filter, evalRng)
	st := cluster.Stats()
	res.TotalHours = cluster.MaxTime() / 3600
	res.CommBytes = st.BytesMoved
	res.CommHours = st.CommSeconds / 3600
	res.MRR = lp.FilteredMRR
	res.TCA = tc.Accuracy
	res.PullBytes = pullBytes
	res.PushBytes = pushBytes
	return res, nil
}

func accumulate(m model.Model, p *model.Params, tr kg.Triple, y float32, entG, relG *grad.SparseGrad) float64 {
	score := m.Score(p, tr)
	coef := model.LogisticLossGrad(score, y)
	m.AccumulateScoreGrad(p, tr, coef, entG.Row(tr.H), relG.Row(tr.R), entG.Row(tr.T))
	return m.ScoreFlops() + m.GradFlops()
}
