package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"kgedist/internal/eval"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/opt"
	part "kgedist/internal/partition"
	"kgedist/internal/simnet"
	"kgedist/internal/tensor"
	"kgedist/internal/xrand"
)

// zeroRowEps: gradient rows whose 2-norm falls below this are treated as
// zero and dropped before communication — the sparse-update behaviour whose
// growth over training motivates the dynamic all-reduce/all-gather strategy
// (Figure 2 of the paper; see also Gupta & Vadhiyar's zero-row elimination).
const zeroRowEps = 1e-8

// Train runs a full distributed training job over the dataset with the
// given number of simulated nodes and returns the paper-style result
// (training time, epochs, TCA, MRR, communication volumes). With a fault
// plan configured, ranks may die mid-training; Recover turns those deaths
// into shrink-and-continue recoveries, otherwise Train returns the
// *mpi.RankFailedError.
func Train(cfg Config, d *kg.Dataset, nodes int) (*Result, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("core: nodes must be >= 1, got %d", nodes)
	}
	res, _, err := train(cfg, d, mpi.NewWorld(simnet.NewCluster(nodes, simnet.XC40Params())))
	return res, err
}

// partition bundles the data distribution for one node count. It is a pure
// function of (cfg, dataset, nodes), so re-partitioning after a shrink is
// deterministic: the same survivors always receive the same shards.
type partition struct {
	shards          [][]kg.Triple
	valShards       [][]kg.Triple
	relOwner        []int
	batchesPerEpoch int
	// plan is the joint row-ownership plan of Partitioned mode (nil for the
	// replicated modes); shards then come from the plan's triple placement.
	plan *part.Plan
}

// buildPartition distributes the training and validation triples over nodes
// ranks (uniform baseline, relation partition, or the joint row partition,
// per cfg).
func buildPartition(cfg *Config, d *kg.Dataset, nodes int) (partition, error) {
	var pt partition
	// valOwner places a validation triple on the rank that can score it;
	// nil splits the validation set uniformly.
	var valOwner func(kg.Triple) int
	if cfg.Partitioned {
		plan, err := part.Build(d, part.Options{
			Ranks: nodes,
			Algo:  cfg.PartitionBy,
			Seed:  cfg.Seed,
			Slack: cfg.PartitionSlack,
		})
		if err != nil {
			return pt, err
		}
		pt.plan = plan
		pt.shards = plan.Shards
		// Validation triples score wherever most of their rows live, so the
		// per-epoch pull stays small.
		valOwner = plan.PreferredRank
	} else {
		shuffled := append([]kg.Triple(nil), d.Train...)
		xrand.New(cfg.Seed).Split(77).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if cfg.RelationPartition {
			pt.shards = kg.RelationPartition(shuffled, d.NumRelations, nodes)
		} else {
			pt.shards = kg.UniformPartition(shuffled, nodes)
		}
	}
	if cfg.RelationPartition {
		pt.relOwner = make([]int, d.NumRelations)
		for r := range pt.relOwner {
			pt.relOwner[r] = -1
		}
		for rank, shard := range pt.shards {
			for _, t := range shard {
				pt.relOwner[t.R] = rank
			}
		}
		// Under RP a rank can only score relations it owns (other replicas'
		// rows are stale by design), so validation splits by owner.
		valOwner = func(t kg.Triple) int { return max(pt.relOwner[t.R], 0) }
	}
	if valOwner == nil {
		pt.valShards = kg.UniformPartition(d.Valid, nodes)
	} else {
		pt.valShards = make([][]kg.Triple, nodes)
		for _, t := range d.Valid {
			owner := valOwner(t)
			pt.valShards[owner] = append(pt.valShards[owner], t)
		}
	}
	maxShard := 0
	for _, s := range pt.shards {
		maxShard = max(maxShard, len(s))
	}
	pt.batchesPerEpoch = (maxShard + cfg.BatchSize - 1) / cfg.BatchSize
	if cfg.ValSample > 0 {
		for r, v := range pt.valShards {
			pt.valShards[r] = v[:min(len(v), cfg.ValSample/nodes+1)]
		}
	}
	return pt, nil
}

// snapshot is the recovery point: the merged model as of some completed
// epoch. Epoch 0 holds the shared initialization, so shrink-and-continue
// works even before the first periodic checkpoint.
//
// In a process world (keepPrev) it also keeps the snapshot the last
// checkpoint replaced: survivors of a death can leave the collective before
// a checkpoint at different points, so some commit it and some do not, and
// agreeSnapshot rolls the ones ahead back to the common one.
type snapshot struct {
	epoch  int
	params *model.Params

	keepPrev   bool
	prevEpoch  int
	prevParams *model.Params
}

// commit makes params the snapshot of epoch.
func (s *snapshot) commit(epoch int, params *model.Params) {
	if s.keepPrev {
		s.prevEpoch, s.prevParams = s.epoch, s.params
	}
	s.epoch, s.params = epoch, params
}

// train is the one training driver behind Train and TrainProcess: validate,
// build the shared initialization, run the attempt loop, evaluate the merged
// model. It consumes the world: the world (or its post-shrink successor) is
// closed before returning. The last attempt's trainRun rides along for the
// replica-consistency tests.
//
// The attempt loop implements shrink-and-continue (ULFM-style): a rank
// failure surfaces as *mpi.RankFailedError from RunErr; the world is shrunk
// over the survivors, the dead ranks' shards are re-partitioned, the
// survivors warm-start from the last snapshot, and training resumes at the
// snapshot epoch. Every step — fault firing, shrink, re-partition, replay —
// is a deterministic function of (Config, dataset, world size).
//
// The world kind decides only what this address space can observe. A channel
// world hosts every rank on one shared cluster: it takes the simulated fault
// plan, and past maxRecoveries it degrades to a single fault-free node
// rather than giving up. A process world hosts one rank on a private
// cluster: faults come from the sockets, a process its peers declared dead
// cannot rejoin, and past maxRecoveries the job fails loudly — surviving
// processes cannot absorb each other, so it is restarted from the checkpoint.
func train(cfg Config, d *kg.Dataset, world *mpi.World) (res *Result, run *trainRun, err error) {
	// A failed close is a failed departure: the bye frame never reached the
	// peers, so they will diagnose this rank as crashed. Surface that rather
	// than report a clean finish. (Closing a channel world is a no-op.)
	defer func() {
		if cerr := world.Close(); cerr != nil && err == nil {
			res, run, err = nil, nil, fmt.Errorf("core: closing transport world: %w", cerr)
		}
	}()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if world.Process() && cfg.FaultPlan != nil {
		return nil, nil, fmt.Errorf("core: simulated fault plans drive the in-process world; over a real transport faults come from the sockets themselves")
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if len(d.Train) == 0 {
		return nil, nil, fmt.Errorf("core: empty training split")
	}

	cluster := world.Cluster()
	if cfg.FaultPlan != nil {
		if err := cluster.SetFaultPlan(cfg.FaultPlan); err != nil {
			return nil, nil, err
		}
	}

	m := model.New(cfg.ModelName, cfg.Dim)
	width := m.Width()
	proto := model.NewParams(m, d.NumEntities, d.NumRelations)
	proto.Init(m, xrand.New(cfg.Seed).Split(0))

	res = &Result{Strategy: cfg.StrategyLabel(), Nodes: world.Size()}
	snap := &snapshot{epoch: 0, params: proto, keepPrev: world.Process()}
	var rec RecoveryStats

	// rerr is the failure the loop recovers from next: an attempt's, or the
	// post-shrink snapshot agreement's.
	var rerr error
	for attempt := 0; ; {
		if rerr == nil {
			pt, perr := buildPartition(&cfg, d, world.Size())
			if perr != nil {
				return nil, nil, perr
			}
			run = &trainRun{
				partition:  pt,
				cfg:        &cfg,
				d:          d,
				m:          m,
				width:      width,
				cluster:    cluster,
				perRank:    make([]*model.Params, world.Size()),
				res:        res,
				snap:       snap,
				rec:        &rec,
				startEpoch: snap.epoch,
				statsRank:  world.LocalRanks()[0],
			}
			if !cfg.Partitioned {
				// Partitioned ranks never hold replicas — that is the memory
				// claim; they build shard stores from the snapshot instead.
				for _, r := range world.LocalRanks() {
					run.perRank[r] = snap.params.Clone()
				}
			}
			if rerr = world.RunErr(run.worker); rerr == nil {
				break
			}
		}
		var rf *mpi.RankFailedError
		if !errors.As(rerr, &rf) || !cfg.Recover {
			return nil, nil, rerr
		}

		// ---- Shrink-and-continue ----
		attempt++
		survivors := world.Size() - len(rf.Ranks)
		degrade := attempt > maxRecoveries || survivors == 1
		if world.Process() {
			for _, r := range rf.Ranks {
				if r == world.LocalRanks()[0] {
					return nil, nil, fmt.Errorf("core: this process (rank %d) was declared dead by its peers; it cannot rejoin the job: %w", r, rerr)
				}
			}
			if degrade && survivors > 1 {
				return nil, nil, fmt.Errorf("core: %d recoveries exhausted the budget of %d; restart the job from the checkpoint: %w",
					attempt, maxRecoveries, rerr)
			}
			degrade = false
		}
		rec.Recoveries++
		rec.RankFailures += len(rf.Ranks)

		dead := rf.Ranks
		if degrade {
			// Graceful degradation: keep only the lowest survivor — a single
			// node cannot suffer a collective failure.
			keep := 0
			for slices.Contains(rf.Ranks, keep) {
				keep++
			}
			dead = nil
			for r := 0; r < world.Size(); r++ {
				if r != keep {
					dead = append(dead, r)
				}
			}
			cluster.ClearFaultPlan()
			rec.Degraded = true
		}
		shrunk, serr := world.Shrink(dead)
		if serr != nil {
			return nil, nil, errors.Join(rerr, serr)
		}
		world = shrunk

		// Charge the recovery to the virtual clock: exponential backoff
		// (failure detection and re-coordination) plus every survivor
		// reloading the snapshot from stable storage. Every process of a
		// process world executes this identically against its private
		// cluster; the agreement's collective then lifts every survivor to
		// the clock of the one that got furthest before the failure.
		bytes := int64(4 * (len(snap.params.Entity.Data) + len(snap.params.Relation.Data)))
		reload, _, _ := cluster.PointToPointCost(bytes)
		cost := recoveryBackoff*math.Pow(2, float64(attempt-1)) + reload*float64(world.Size())
		cluster.Collective(cost, bytes*int64(world.Size()), int64(world.Size()), tagRecovery)
		rec.RecoverySeconds += cost
		rerr = nil
		if world.Process() {
			if rerr = agreeSnapshot(world, snap, &rec); rerr != nil {
				continue
			}
		}

		rec.EpochsLost += res.Epochs - snap.epoch
		for len(res.PerEpoch) > 0 && res.PerEpoch[len(res.PerEpoch)-1].Epoch > snap.epoch {
			res.PerEpoch = res.PerEpoch[:len(res.PerEpoch)-1]
		}
		res.Epochs = snap.epoch
		// The adaptive controller and its residuals are rank-local state lost
		// with the dead world; the new attempt re-ascends the ladder from
		// fp32 (DESIGN.md §13) and the dynamic strategy from all-reduce, so
		// their records start over too.
		res.CompressionSteps = nil
		res.SwitchedAtEpoch = 0
	}

	rec.FaultsInjected = cluster.FaultsInjected()
	rec.FinalNodes = world.Size()
	res.Recovery = rec

	// ---- Final evaluation on the merged model ----
	// The stats rank published it from the end of the worker; in a process
	// world every process is its own stats rank and evaluates the identical
	// model, so every process reports the same numbers.
	merged := run.final
	if run.plan != nil {
		q := run.plan.Quality()
		res.Partition = &PartitionStats{
			Algo:              run.plan.Algo,
			Ranks:             run.plan.Ranks,
			CutRatio:          q.CutRatio,
			RemoteRowFraction: q.RemoteRowFraction,
			EntityBalance:     q.EntityBalance,
			RelationBalance:   q.RelationBalance,
			TripleBalance:     q.TripleBalance,
			MaxEntityShard:    q.MaxEntityShard,
		}
	}
	filter := kg.NewFilterIndex(d)
	evalRng := xrand.New(cfg.Seed + 999)
	lp := eval.LinkPrediction(m, merged, d, filter, cfg.TestSample, evalRng)
	tc := eval.TripleClassification(m, merged, d, filter, evalRng)
	res.MRR = lp.FilteredMRR
	res.Hits1 = lp.Hits1
	res.Hits3 = lp.Hits3
	res.Hits10 = lp.Hits10
	res.MR = lp.MR
	res.TCA = tc.Accuracy
	res.FinalParams = merged
	st := cluster.Stats()
	res.CommBytes = st.BytesMoved
	res.CommHours = st.CommSeconds / 3600
	res.RelationCommBytes = cluster.BytesByTag()[tagRelation]
	res.TotalHours = cluster.MaxTime() / 3600
	return res, run, nil
}

// trainRun carries the state shared (read-only, or stats-rank-written) across
// the rank goroutines of one attempt.
type trainRun struct {
	partition
	cfg        *Config
	d          *kg.Dataset
	m          model.Model
	width      int
	cluster    *simnet.Cluster
	res        *Result
	snap       *snapshot
	rec        *RecoveryStats
	startEpoch int // resume point: epochs before this are already done

	// perRank holds the replicas hosted in this address space, by rank:
	// every rank's in a replicated channel world, only this process's in a
	// process world, none in Partitioned mode.
	perRank []*model.Params

	// statsRank is the rank whose goroutine records per-epoch stats and the
	// recovery snapshot: rank 0 in a channel world, the process's own (sole)
	// rank in a process world — every process then records its own identical
	// copy of the global curves (and its own local loss). final is the merged
	// trained model it publishes when the epoch loop ends.
	statsRank int
	final     *model.Params
}

// rankTables is the row seam under the epoch loop: where one rank's embedding
// rows live — a full replica (replicaTables), or an owned shard plus the rows
// pulled for the staging at hand (shardTables) — and how a batch's gradient
// rows are exchanged and applied there. The staging, the per-triple math,
// the optimizer apply and the validator above it are written once, here.
type rankTables interface {
	// EntityRow and RelationRow resolve a staged triple's parameter rows.
	model.Rows
	// begin opens a staging, need announces a triple about to be scored, and
	// pull makes every announced row resolvable. pull is a collective — a
	// rank with nothing to score still calls it.
	begin()
	need(tr kg.Triple)
	pull() error
	// entGrad and relGrad resolve the batch's gradient row for a parameter
	// row, materializing a zero row on first touch.
	entGrad(id int32) []float32
	relGrad(id int32) []float32
	// closeBatch turns the accumulated gradient rows (scored at the cost of
	// flops) into updated parameters: drop zero rows, select, charge the
	// compute, exchange, apply. It is a collective — an empty batch still
	// exchanges.
	closeBatch(epoch int, flops float64, lr float32, ep *epochTally) error
	// closeEpoch labels the epoch's exchange in ep; for the adaptive ladder
	// it is the epoch boundary that may step the rung.
	closeEpoch(epoch int, ep *epochTally) error
	// ownedRows lists the rows whose trained values only this rank holds, as
	// unified row ids (entities, then relations) and freshly allocated
	// values the all-gather may take ownership of.
	ownedRows() (uids []int32, vals []float32)
}

// epochTally accumulates one epoch's rank-local observables.
type epochTally struct {
	nnzSum, lossSum       float64
	lossN                 int
	selBefore, selDropped int
	localRefs, remoteRefs int // unique owned / pulled rows (shardTables only)

	// stats is the epoch's record; closeEpoch labels the exchange in it
	// (Mode, Level, GradEntropy), the epoch loop fills in the rest.
	stats EpochStats
}

// worker is the per-rank training loop. Collective errors (a peer died) are
// returned, not handled: the attempt loop in train owns shrinking the world
// and re-running.
func (t *trainRun) worker(c *mpi.Comm) error {
	cfg := t.cfg
	rank := c.Rank()
	shard := t.shards[rank]

	plateau := opt.NewPlateau(
		opt.ScaledLR(cfg.BaseLR, c.Size(), lrScaleCap),
		lrFactor, minLR, cfg.Tolerance)

	rng := xrand.New(cfg.Seed).Split(uint64(rank + 1))
	sampler := model.NewNegSampler(t.d.NumEntities, rng.Split(2))
	var tables rankTables
	if cfg.Partitioned {
		tables = newShardTables(t, c, rng.Split(3))
	} else {
		tables = newReplicaTables(t, c, rng.Split(3), rng.Split(4))
	}

	order := make([]int, len(shard))
	for i := range order {
		order[i] = i
	}
	// Small shards (relation partition can be uneven) are not oversampled: a
	// batch never exceeds the shard size.
	batch := make([]kg.Triple, min(cfg.BatchSize, len(shard)))
	val := t.valShards[rank]
	var st staging
	best := -1.0
	sinceBest := 0
	var prevStats simnet.Stats
	var prevTime float64

	for epoch := t.startEpoch + 1; epoch <= cfg.MaxEpochs; epoch++ {
		// Epoch-start timestamp (the stats rank reads between barriers so
		// no rank is mid-charge).
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == t.statsRank {
			prevTime = t.cluster.MaxTime()
			prevStats = t.cluster.Stats()
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		epochRng := rng.Split(uint64(100 + epoch))
		epochRng.ShuffleInts(order)

		var ep epochTally
		lr := float32(plateau.LR())
		for b := 0; b < t.batchesPerEpoch; b++ {
			for i := range batch {
				batch[i] = shard[order[(b*cfg.BatchSize+i)%len(shard)]]
			}
			if err := st.stage(t.m, tables, sampler, batch, cfg.NegSamples); err != nil {
				return err
			}
			var flops float64
			negs := cfg.NegSamples
			for i, pos := range batch {
				f, loss, n := t.trainExample(tables, pos, st.cands[i*negs:(i+1)*negs], st.scores[i*(negs+1):(i+1)*(negs+1)])
				flops += f
				ep.lossSum += loss
				ep.lossN += n
			}
			if err := tables.closeBatch(epoch, flops, lr, &ep); err != nil {
				return err
			}
		}
		if err := tables.closeEpoch(epoch, &ep); err != nil {
			return err
		}

		// Validation: pairwise ranking accuracy (a positive must outscore one
		// fresh uniform corruption) over the rank's validation shard, reduced
		// globally so all ranks share the decision.
		valRng := xrand.New(cfg.Seed).Split(uint64(5000 + epoch)).Split(uint64(rank))
		if err := st.stage(t.m, tables, model.NewNegSampler(t.d.NumEntities, valRng), val, 1); err != nil {
			return err
		}
		correct := 0
		for i := range val {
			if st.scores[2*i] > st.scores[2*i+1] {
				correct++
			}
		}
		gc, err := c.AllReduceScalar(float64(correct), mpi.OpSum)
		if err != nil {
			return err
		}
		gt, err := c.AllReduceScalar(float64(len(val)), mpi.OpSum)
		if err != nil {
			return err
		}
		valAcc := 50.0
		if gt > 0 {
			valAcc = 100 * gc / gt
		}

		// Epoch-end timestamp and per-epoch record.
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == t.statsRank {
			now := t.cluster.MaxTime()
			st := t.cluster.Stats()
			es := ep.stats
			es.Epoch = epoch
			es.Seconds = now - prevTime
			es.CommSeconds = st.CommSeconds - prevStats.CommSeconds
			es.CommBytes = st.BytesMoved - prevStats.BytesMoved
			es.ValAccuracy = valAcc
			es.LR = plateau.LR()
			if t.batchesPerEpoch > 0 {
				es.NonZeroGradRows = ep.nnzSum / float64(t.batchesPerEpoch)
			}
			if ep.lossN > 0 {
				es.TrainLoss = ep.lossSum / float64(ep.lossN)
			}
			if ep.selBefore > 0 {
				es.Sparsity = float64(ep.selDropped) / float64(ep.selBefore)
			}
			if refs := ep.localRefs + ep.remoteRefs; refs > 0 {
				es.RemoteRowFraction = float64(ep.remoteRefs) / float64(refs)
			}
			t.res.PerEpoch = append(t.res.PerEpoch, es)
			t.res.Epochs = epoch
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		if cfg.TrackEpochStats {
			// The stats rank computes the real validation TCA on the merged
			// model while the others hold at the barrier (evaluation cost is
			// excluded from the virtual clock; see EXPERIMENTS.md).
			merged, err := t.mergedModel(c, tables)
			if err != nil {
				return err
			}
			if merged != nil {
				t.res.PerEpoch[len(t.res.PerEpoch)-1].ValTCA =
					validationTCA(t.m, merged, t.d, cfg.ValSample, cfg.Seed+uint64(epoch))
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}

		if cfg.CheckpointEvery > 0 && epoch%cfg.CheckpointEvery == 0 {
			if err := t.checkpoint(c, tables, epoch); err != nil {
				return err
			}
		}

		plateau.Observe(valAcc)
		if valAcc > best+1e-12 {
			best = valAcc
			sinceBest = 0
		} else {
			sinceBest++
		}
		if sinceBest >= cfg.StopPatience {
			break
		}
	}

	// Publish the trained model: the stop decisions above are identical on
	// every rank, so all ranks reach the merge together.
	merged, err := t.mergedModel(c, tables)
	if err != nil {
		return err
	}
	if merged != nil {
		t.final = merged
	}
	return nil
}

// staging is a worker's reusable buffer of pre-drawn corruptions and the
// scores of a staged batch.
type staging struct {
	cands  []kg.Triple // triple i's n corruptions at [i*n, (i+1)*n)
	negBuf []kg.Triple // one triple's draw
	batch  model.Batch
	scores []float32 // triple i's score, then its corruptions', at [i*(n+1), (i+1)*(n+1))
}

// stage opens a staging over triples: it draws n corruptions of each into
// cands, announces every row they touch, pulls, and scores every triple and
// corruption in one batch. Scoring draws nothing from the sampler, so drawing
// up front consumes its stream in the same order as drawing triple by triple;
// nothing writes a parameter row before the batch closes, so the scores are
// those of scoring each triple when it is trained.
func (st *staging) stage(m model.Model, tb rankTables, s *model.NegSampler, triples []kg.Triple, n int) error {
	tb.begin()
	st.cands = st.cands[:0]
	for _, tr := range triples {
		st.negBuf = s.CorruptN(tr, n, st.negBuf)
		st.cands = append(st.cands, st.negBuf...)
		tb.need(tr)
		for _, neg := range st.negBuf {
			tb.need(neg)
		}
	}
	if err := tb.pull(); err != nil {
		return err
	}
	st.batch.Reset()
	for i, tr := range triples {
		st.batch.Add(tb, tr)
		for _, neg := range st.cands[i*n : (i+1)*n] {
			st.batch.Add(tb, neg)
		}
	}
	st.scores = st.batch.Score(m)
	return nil
}

// accumulate adds coef * dScore/dRow of a staged triple into the batch's
// gradient rows.
func (t *trainRun) accumulate(tb rankTables, tr kg.Triple, coef float32) {
	t.m.AccumulateScoreGradRows(
		tb.EntityRow(tr.H), tb.RelationRow(tr.R), tb.EntityRow(tr.T), coef,
		tb.entGrad(tr.H), tb.relGrad(tr.R), tb.entGrad(tr.T))
}

// trainExample processes one staged positive and its pre-drawn corruptions
// under the logistic loss and the configured sampling scheme; scores holds the
// staged scores of the positive, then of each corruption. It returns the
// flops spent, the summed per-example loss, and the number of loss terms
// contributing (so the caller can track a mean training loss per epoch).
// The flops charge the selection scan's n scores and then each score the
// loss reads, as if each were taken here, so the virtual clock does not
// see the batching.
func (t *trainRun) trainExample(tb rankTables, pos kg.Triple, negs []kg.Triple, scores []float32) (flops, lossSum float64, lossN int) {
	cfg, m := t.cfg, t.m
	sPos, negScores := scores[0], scores[1:]
	if cfg.NegSelect && len(negs) > 1 {
		// §4.5: train on the hardest candidate only.
		flops += float64(len(negs)) * m.ScoreFlops()
		hardest := model.Hardest(negScores)
		negs, negScores = negs[hardest:hardest+1], negScores[hardest:hardest+1]
	}
	// Logistic loss: the positive labeled +1, then each negative labeled -1.
	for i := -1; i < len(negs); i++ {
		tr, s, y := pos, sPos, float32(1)
		if i >= 0 {
			tr, s, y = negs[i], negScores[i], -1
		}
		t.accumulate(tb, tr, model.LogisticLossGrad(s, y))
		flops += m.ScoreFlops() + m.GradFlops()
		lossSum += float64(model.LogisticLoss(s, y))
		lossN++
	}
	return flops, lossSum, lossN
}

// applyGrads feeds aggregated rows to the optimizer — step, then decoupled
// L2 decay — and returns the flops spent. Optimizer state is laid out like
// the storage it updates: gradient row id lives in row index[id] of mat and
// owns that optimizer slot; a nil index is the identity (a full table).
func (t *trainRun) applyGrads(o opt.Optimizer, mat *tensor.Matrix, index []int32, agg *grad.SparseGrad, lr float32) float64 {
	if agg.Len() == 0 {
		return 0
	}
	o.BeginStep()
	decay := 1 - 2*float32(l2)*lr
	agg.ForEach(func(id int32, row []float32) {
		if index != nil {
			id = index[id]
		}
		pr := mat.Row(int(id))
		o.ApplyRow(id, pr, row, lr)
		tensor.Scale(decay, pr)
	})
	return float64(agg.Len()*t.width) * 12
}

// mergedModel assembles the full model on the stats rank (other ranks return
// nil): entity rows of a replica are identical everywhere and a relation
// nobody trains keeps its shared initialization, so the stats rank's own
// replica is the model up to the relation rows its peers own under RP; a
// partitioned rank holds no replica and every row comes from its one owner.
// Peers' owned rows are read straight out of perRank when every replica
// lives in this address space, and ride one sparse-row all-gather otherwise
// — then mergedModel is a collective and every rank must call it.
func (t *trainRun) mergedModel(c *mpi.Comm, tables rankTables) (*model.Params, error) {
	var merged *model.Params
	if c.Rank() == t.statsRank {
		if own := t.perRank[c.Rank()]; own != nil {
			merged = own.Clone()
		} else {
			merged = model.NewParams(t.m, t.d.NumEntities, t.d.NumRelations)
		}
	}
	// Shards always travel; RP's relation rows travel when some replica lives
	// in another address space.
	gather := t.plan != nil
	for _, p := range t.perRank {
		gather = gather || (p == nil && t.relOwner != nil)
	}
	if !gather {
		if merged != nil {
			for rel, owner := range t.relOwner {
				if owner >= 0 && owner != c.Rank() {
					copy(merged.Relation.Row(rel), t.perRank[owner].Relation.Row(rel))
				}
			}
		}
		return merged, nil
	}
	uids, vals := tables.ownedRows()
	allUIDs, allVals, _, err := c.AllGatherRows(uids, vals, tagCheckpoint)
	if err != nil {
		return nil, err
	}
	if merged == nil {
		return nil, nil
	}
	for src := range allUIDs {
		for k, uid := range allUIDs[src] {
			copy(modelRow(merged, uid), allVals[src][k*t.width:(k+1)*t.width])
		}
	}
	return merged, nil
}

// modelRow resolves a unified row id (entities, then relations) inside full
// params.
func modelRow(p *model.Params, uid int32) []float32 {
	if n := p.Entity.Rows; int(uid) >= n {
		return p.Relation.Row(int(uid) - n)
	}
	return p.Entity.Row(int(uid))
}

// checkpoint takes the coordinated snapshot, one protocol for every mode and
// fabric: merged model, stats-rank snapshot bookkeeping, rank-0 crash-safe
// disk write, and a max-reduced verdict so every rank stops together on a
// write failure — a lone returning rank would leave its peers blocked at the
// next collective. The storage-write charge lands once per cluster under the
// "checkpoint" tag: the stats rank is rank 0 on the shared channel cluster
// and every process on its own private cluster. The verdict is also what
// holds the peers still while the stats rank reads their replicas.
func (t *trainRun) checkpoint(c *mpi.Comm, tables rankTables, epoch int) error {
	merged, err := t.mergedModel(c, tables)
	if err != nil {
		return err
	}
	if c.Rank() == t.statsRank {
		t.snap.commit(epoch, merged)
		t.rec.Checkpoints++
		bytes := int64(4 * (len(merged.Entity.Data) + len(merged.Relation.Data)))
		cost, _, _ := t.cluster.PointToPointCost(bytes)
		t.cluster.Collective(cost, bytes, int64(c.Size()), tagCheckpoint)
	}
	var werr error
	var flag float64
	if c.Rank() == 0 && t.cfg.CheckpointPath != "" {
		if werr = model.SaveCheckpoint(t.cfg.CheckpointPath, t.m, merged); werr != nil {
			flag = 1
		}
	}
	verdict, err := c.AllReduceScalar(flag, mpi.OpMax)
	if err != nil {
		return err
	}
	if verdict == 0 {
		return nil
	}
	if werr != nil {
		return fmt.Errorf("core: checkpoint at epoch %d: %w", epoch, werr)
	}
	return fmt.Errorf("core: checkpoint at epoch %d failed on rank 0", epoch)
}

// agreeSnapshot makes a process world's survivors replay from one snapshot.
// A death inside the collective before a checkpoint can release some
// survivors, which commit the new snapshot, and fail the others, which keep
// the old one; a survivor completes a collective only once every rank has
// entered it, so the survivors are at most one checkpoint apart. They
// min-reduce their snapshot epochs, and a survivor ahead rolls back to the
// snapshot its last checkpoint replaced, forgetting that checkpoint. The
// agreement is an ordinary collective of the shrunk world: a death during it
// is one more failure to recover from.
func agreeSnapshot(world *mpi.World, snap *snapshot, rec *RecoveryStats) error {
	return world.RunErr(func(c *mpi.Comm) error {
		agreed, err := c.AllReduceScalar(float64(snap.epoch), mpi.OpMin)
		if err != nil {
			return err
		}
		switch e := int(agreed); {
		case e == snap.epoch:
		case e == snap.prevEpoch && snap.prevParams != nil:
			snap.epoch, snap.params = snap.prevEpoch, snap.prevParams
			snap.prevParams = nil
			rec.Checkpoints--
		default:
			return fmt.Errorf("core: survivors hold snapshots of epochs %d and %d, more than one checkpoint apart", e, snap.epoch)
		}
		return nil
	})
}

// dropZeroRows removes rows with negligible norm, returning the flops spent
// scanning. The norms are NormStats', the one row-norm path of the trainer.
func dropZeroRows(g *grad.SparseGrad) float64 {
	flops := float64(g.Len()) * float64(g.Width()) * 2
	_, norms := g.NormStats()
	// Indices is a snapshot Drop never touches, parallel to norms.
	for k, id := range g.Indices() {
		if norms[k] <= zeroRowEps {
			g.Drop(id)
		}
	}
	return flops
}

// validationTCA computes triple-classification accuracy on the validation
// split (thresholds fit on one half, accuracy measured on the other),
// subsampled to at most sample triples.
func validationTCA(m model.Model, p *model.Params, d *kg.Dataset, sample int, seed uint64) float64 {
	rng := xrand.New(seed)
	valid := d.Valid
	if sample > 0 && len(valid) > sample {
		perm := rng.Perm(len(valid))
		sub := make([]kg.Triple, sample)
		for i := range sub {
			sub[i] = valid[perm[i]]
		}
		valid = sub
	}
	if len(valid) < 4 {
		return 0
	}
	half := len(valid) / 2
	tmp := &kg.Dataset{
		Name:         d.Name,
		NumEntities:  d.NumEntities,
		NumRelations: d.NumRelations,
		Train:        d.Train,
		Valid:        valid[:half],
		Test:         valid[half:],
	}
	f := kg.NewFilterIndex(d)
	return eval.TripleClassification(m, p, tmp, f, rng).Accuracy
}
