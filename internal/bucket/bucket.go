// Package bucket implements PyTorch-BigGraph-style entity-bucket training —
// the related-work system the paper positions itself against (§2: "PyTorch
// Big Graph tried to split the graph into buckets and train the
// non-overlapping parts simultaneously without involving any communication
// between them. But, with their proposed techniques, the communication of
// entity embedding is reduced but not eliminated.").
//
// Entities are hashed into 2P buckets; each training round pairs the
// buckets into P disjoint pairs (a 1-factorization of the complete graph,
// i.e. the classic round-robin tournament schedule), and each worker trains
// the triples whose head and tail fall inside its pair with exclusive
// access — entity gradients need no communication during a round. Between
// rounds buckets migrate to their next worker, which is where PBG pays its
// entity-embedding communication; relation embeddings are replicated and
// all-reduced once per round. One epoch = 2P-1 rounds = every bucket pair
// trained exactly once.
//
// The bucketvsrp experiment contrasts this entity-partition communication
// pattern with the paper's relation partition.
package bucket

import (
	"fmt"

	"kgedist/internal/eval"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/opt"
	"kgedist/internal/simnet"
	"kgedist/internal/xrand"
)

// Config assembles a bucket-training run.
type Config struct {
	// ModelName and Dim select the KGE model.
	ModelName string
	Dim       int
	// LR is the SGD step size (PBG-style local updates use plain SGD; the
	// per-entity optimizer state would otherwise have to migrate with the
	// buckets).
	LR float64
	// Epochs is the number of full passes (each = 2P-1 rounds).
	Epochs int
	// NegSamples per positive. Negatives are drawn inside the worker's
	// current bucket pair, as PBG does.
	NegSamples int
	// TestSample subsamples the final ranking evaluation.
	TestSample int
	Seed       uint64
}

// DefaultConfig returns a small-footprint configuration.
func DefaultConfig() Config {
	return Config{
		ModelName:  "complex",
		Dim:        16,
		LR:         0.05,
		Epochs:     15,
		NegSamples: 2,
		TestSample: 150,
		Seed:       1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !model.IsKnownModel(c.ModelName) {
		return fmt.Errorf("bucket: unknown model %q (want complex, distmult or transe)", c.ModelName)
	}
	if c.Dim <= 0 || c.LR <= 0 || c.Epochs <= 0 || c.NegSamples < 1 {
		return fmt.Errorf("bucket: invalid config %+v", c)
	}
	return nil
}

// Result summarizes a bucket-training run.
type Result struct {
	Workers    int
	Buckets    int
	Epochs     int
	TotalHours float64
	// EntityCommBytes is the volume of bucket migrations — the entity
	// communication PBG reduces but cannot eliminate.
	EntityCommBytes int64
	// RelationCommBytes is the per-round relation all-reduce volume.
	RelationCommBytes int64
	TCA               float64
	MRR               float64
}

// pairOf returns the tournament pairing for the given round: with 2P teams,
// team 2P-1 is fixed and the others rotate. Returns P pairs covering all
// buckets disjointly.
func roundPairs(p, round int) [][2]int {
	n := 2 * p // buckets
	pairs := make([][2]int, 0, p)
	// Standard circle method: positions 0..n-2 rotate, n-1 fixed.
	// Pair k of round r: (a, b) with a = (r + k) mod (n-1), b = (r - k + n-1) mod (n-1),
	// except k = 0 pairs (r mod n-1) with the fixed bucket n-1.
	pairs = append(pairs, [2]int{round % (n - 1), n - 1})
	for k := 1; k < p; k++ {
		a := (round + k) % (n - 1)
		b := (round - k + (n - 1)) % (n - 1)
		pairs = append(pairs, [2]int{a, b})
	}
	return pairs
}

// Train runs bucketed training on workers simulated nodes.
func Train(cfg Config, d *kg.Dataset, workers int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("bucket: need at least one worker, got %d", workers)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(d.Train) == 0 {
		return nil, fmt.Errorf("bucket: empty training split")
	}

	m := model.New(cfg.ModelName, cfg.Dim)
	w := m.Width()
	nBuckets := 2 * workers
	bucketOf := func(e int32) int { return int(e) % nBuckets }

	// Group triples by unordered bucket pair key.
	pairKey := func(a, b int) int {
		if a > b {
			a, b = b, a
		}
		return a*nBuckets + b
	}
	byPair := map[int][]kg.Triple{}
	for _, t := range d.Train {
		byPair[pairKey(bucketOf(t.H), bucketOf(t.T))] = append(byPair[pairKey(bucketOf(t.H), bucketOf(t.T))], t)
	}
	// Same-bucket triples (i,i) attach to the first round in which bucket
	// i appears; roundPairs covers every bucket every round, so fold them
	// into the pair that contains i in round 0 deterministically: we simply
	// merge (i,i) triples into the unordered pair (i, partner) of round 0.
	for i := 0; i < nBuckets; i++ {
		self := pairKey(i, i)
		if len(byPair[self]) == 0 {
			continue
		}
		for _, pr := range roundPairs(workers, 0) {
			if pr[0] == i || pr[1] == i {
				dst := pairKey(pr[0], pr[1])
				if dst != self {
					byPair[dst] = append(byPair[dst], byPair[self]...)
					delete(byPair, self)
				}
				break
			}
		}
	}

	// Members per bucket, for migration-volume accounting.
	bucketSize := make([]int, nBuckets)
	for e := 0; e < d.NumEntities; e++ {
		bucketSize[bucketOf(int32(e))]++
	}

	cluster := simnet.NewCluster(workers, simnet.XC40Params())
	world := mpi.NewWorld(cluster)

	// Shared parameter store: the schedule guarantees exclusive bucket
	// access per round, so entity rows are never written concurrently.
	params := model.NewParams(m, d.NumEntities, d.NumRelations)
	params.Init(m, xrand.New(cfg.Seed).Split(0))

	rounds := 2*workers - 1
	// holder[b] tracks which worker held bucket b in the previous round,
	// to charge migration bytes. -1 = not yet placed.
	holder := make([]int, nBuckets)
	for i := range holder {
		holder[i] = -1
	}
	var entityBytes int64

	runErr := world.RunErr(func(c *mpi.Comm) error {
		rank := c.Rank()
		relOpt := opt.NewSGD()
		lr := float32(cfg.LR)
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for round := 0; round < rounds; round++ {
				pairs := roundPairs(workers, round)
				pr := pairs[rank]
				// Bucket migration accounting (rank 0 updates shared state
				// between barriers).
				if err := c.Barrier(); err != nil {
					return err
				}
				if rank == 0 {
					for wID, q := range pairs {
						for _, b := range q {
							if holder[b] != -1 && holder[b] != wID {
								entityBytes += int64(bucketSize[b] * w * 4)
							}
							holder[b] = wID
						}
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				// Charge the migration cost for this rank's two buckets.
				moveBytes := int64((bucketSize[pr[0]] + bucketSize[pr[1]]) * w * 4)
				mvCost, _, _ := c.Cluster().PointToPointCost(moveBytes)
				c.Cluster().AddSeconds(rank, mvCost)

				// Train the pair's triples with exclusive entity access.
				triples := byPair[pairKey(pr[0], pr[1])]
				rng := xrand.New(cfg.Seed).Split(uint64(1 + epoch*1000 + round*10 + rank))
				relG := grad.NewSparseGrad(w)
				gh := make([]float32, w)
				gt := make([]float32, w)
				var flops float64
				cands := collectPairEntities(d.NumEntities, nBuckets, pr)
				for _, pos := range triples {
					flops += sgdStep(m, params, pos, 1, lr, gh, gt, relG)
					for k := 0; k < cfg.NegSamples; k++ {
						neg := corruptWithin(pos, cands, rng)
						flops += sgdStep(m, params, neg, -1, lr, gh, gt, relG)
					}
				}
				cluster.AddCompute(rank, flops)

				// Relation gradients are replicated: all-reduce per round
				// (PBG keeps them on a shared server; the volume is what
				// matters, and it is NOT eliminated — the paper's point).
				// Parameters are one shared store here, so only rank 0
				// applies the aggregated update, fenced by barriers.
				relDense := make([]float32, d.NumRelations*w)
				relG.ScatterDense(relDense)
				if _, err := c.AllReduceSum(relDense, "relation"); err != nil {
					return err
				}
				if rank == 0 {
					agg := grad.NewSparseGrad(w)
					agg.AccumulateDense(relDense)
					inv := 1 / float32(workers)
					relOpt.BeginStep()
					agg.ForEach(func(id int32, row []float32) {
						for i := range row {
							row[i] *= inv
						}
						relOpt.ApplyRow(id, params.Relation.Row(int(id)), row, lr)
					})
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}

	filter := kg.NewFilterIndex(d)
	evalRng := xrand.New(cfg.Seed + 99)
	lp := eval.LinkPrediction(m, params, d, filter, cfg.TestSample, evalRng)
	tc := eval.TripleClassification(m, params, d, filter, evalRng)
	return &Result{
		Workers:           workers,
		Buckets:           nBuckets,
		Epochs:            cfg.Epochs,
		TotalHours:        cluster.MaxTime() / 3600,
		EntityCommBytes:   entityBytes,
		RelationCommBytes: cluster.BytesByTag()["relation"],
		TCA:               tc.Accuracy,
		MRR:               lp.FilteredMRR,
	}, nil
}

// collectPairEntities lists the entities inside the two buckets — the
// candidate pool for PBG-style in-pair negative sampling.
func collectPairEntities(numEntities, nBuckets int, pr [2]int) []int32 {
	var out []int32
	for e := 0; e < numEntities; e++ {
		b := e % nBuckets
		if b == pr[0] || b == pr[1] {
			out = append(out, int32(e))
		}
	}
	return out
}

// corruptWithin corrupts head or tail with an entity from the pair's pool.
func corruptWithin(pos kg.Triple, cands []int32, rng *xrand.RNG) kg.Triple {
	neg := pos
	for tries := 0; tries < 20; tries++ {
		e := cands[rng.Intn(len(cands))]
		if rng.Bernoulli(0.5) {
			if e != pos.H {
				neg.H = e
				return neg
			}
		} else if e != pos.T {
			neg.T = e
			return neg
		}
	}
	return neg
}

// sgdStep applies one local SGD update; relation gradients are deferred to
// the round's all-reduce via relG, entity rows update in place (exclusive).
func sgdStep(m model.Model, p *model.Params, tr kg.Triple, y float32, lr float32, gh, gt []float32, relG *grad.SparseGrad) float64 {
	for i := range gh {
		gh[i], gt[i] = 0, 0
	}
	score := m.Score(p, tr)
	coef := model.LogisticLossGrad(score, y)
	m.AccumulateScoreGrad(p, tr, coef, gh, relG.Row(tr.R), gt)
	h := p.Entity.Row(int(tr.H))
	t := p.Entity.Row(int(tr.T))
	for i := range gh {
		h[i] -= lr * gh[i]
		t[i] -= lr * gt[i]
	}
	return m.ScoreFlops() + m.GradFlops()
}
