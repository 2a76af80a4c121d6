package core

// Partitioned-table training (ISSUE 8 / ROADMAP item 2): instead of
// replicating the full embedding tables on every rank, a partition.Plan
// assigns each entity row and relation row exactly one owner, each rank
// materializes only its owned shard (shardStore), and every batch runs a
// two-phase row exchange (partExchanger):
//
//	pull — broadcast the batch's wanted remote row ids (all-gather of an id
//	       payload), owners reply with the row values (all-gather of sparse
//	       rows); the rank caches them for the batch.
//	push — gradient rows for remote-owned rows are all-gathered back; each
//	       owner folds in the contributions addressed to it, averages by
//	       1/P, and applies them with its own optimizer state.
//
// Both phases are plain mpi collectives, so the mode runs unchanged on the
// channel world and the process/TCP world, and — unlike the replicated
// checkpoint paths, which differ between worlds — the partitioned
// checkpoint is one collective gather everywhere, keeping the two worlds'
// virtual clocks and trajectories bit-identical even through snapshots.
// Recovery reuses the generic shrink-and-continue loop: the plan is a pure
// function of (Config, dataset, world size), so survivors re-partition
// deterministically and warm-start their new shards from the snapshot.

import (
	"fmt"

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

// shardStore is one rank's slice of the embedding tables: the rows it owns
// under the plan, stored densely in ascending-uid order. It is the whole
// memory claim of partitioned mode — len(uids) rows instead of the full
// NumEntities+NumRelations.
type shardStore struct {
	plan  *part.Plan
	width int
	uids  []int32        // local index -> unified row id, ascending
	local []int32        // unified row id -> local index, -1 if unowned
	rows  *tensor.Matrix // owned rows, indexed by local index
}

// newShardStore materializes rank's shard, warm-starting every owned row
// from the full snapshot params (the scatter half of the shard-aware
// checkpoint protocol; the gather half is partMergedParams).
func newShardStore(plan *part.Plan, rank, width int, src *model.Params) *shardStore {
	uids := plan.OwnedUIDs(rank)
	s := &shardStore{
		plan:  plan,
		width: width,
		uids:  uids,
		local: make([]int32, plan.Rows()),
		rows:  tensor.NewMatrix(len(uids), width),
	}
	for i := range s.local {
		s.local[i] = -1
	}
	for li, uid := range uids {
		s.local[uid] = int32(li)
		copy(s.rows.Row(li), snapshotRow(src, plan, uid))
	}
	return s
}

// snapshotRow resolves a unified row id inside full params.
func snapshotRow(p *model.Params, plan *part.Plan, uid int32) []float32 {
	if plan.IsRelationUID(uid) {
		return p.Relation.Row(int(uid) - plan.NumEntities)
	}
	return p.Entity.Row(int(uid))
}

// owns reports whether this rank holds the row.
func (s *shardStore) owns(uid int32) bool { return s.local[uid] >= 0 }

// row returns the owned row's storage.
func (s *shardStore) row(uid int32) []float32 { return s.rows.Row(int(s.local[uid])) }

// partExchanger runs one rank's batch-scoped row exchange. All scratch
// (request decode buffer, the remote-row cache, the response/push/aggregate
// SparseGrads, the touch stamps) is reused across batches; the only fresh
// allocations are the wire payloads, whose ownership the all-gather
// contract transfers to the world.
type partExchanger struct {
	comm  *mpi.Comm
	store *shardStore
	width int

	cache *grad.SparseGrad // pulled remote rows, keyed by uid; valid for one batch
	resp  *grad.SparseGrad // owned rows staged for peers' requests
	pushG *grad.SparseGrad // gradient rows leaving for their owners
	agg   *grad.SparseGrad // aggregated gradients for rows this rank owns

	stamp  []int32 // batch stamp per unified row id, for unique-touch counting
	gen    int32
	local  int // unique owned rows touched this batch
	remote int // unique remote rows touched (= pulled) this batch

	reqBuf  []int32 // DecodeIDs scratch
	moveBuf []int32 // owned/remote split scratch in push
}

func newPartExchanger(c *mpi.Comm, store *shardStore, width int) *partExchanger {
	return &partExchanger{
		comm:  c,
		store: store,
		width: width,
		cache: grad.NewSparseGrad(width),
		resp:  grad.NewSparseGrad(width),
		pushG: grad.NewSparseGrad(width),
		agg:   grad.NewSparseGrad(width),
		stamp: make([]int32, store.plan.Rows()),
	}
}

// begin opens a batch: forgets the previous batch's pulled rows and touch
// counts.
func (x *partExchanger) begin() {
	x.gen++
	x.cache.Clear()
	x.local, x.remote = 0, 0
}

// need marks the three rows a triple touches, materializing want-list
// entries for the remote ones.
//
//kgelint:hotpath
func (x *partExchanger) need(t kg.Triple) {
	x.needRow(t.H)
	x.needRow(x.store.plan.RelationUID(t.R))
	x.needRow(t.T)
}

func (x *partExchanger) needRow(uid int32) {
	if x.stamp[uid] == x.gen {
		return
	}
	x.stamp[uid] = x.gen
	if x.store.owns(uid) {
		x.local++
		return
	}
	x.remote++
	x.cache.Row(uid) // zero row = want-list entry, overwritten by pull
}

// row resolves a unified row id against the shard or the batch cache. Every
// uid reaching here was announced via need before the pull.
func (x *partExchanger) row(uid int32) []float32 {
	if x.store.owns(uid) {
		return x.store.row(uid)
	}
	r, ok := x.cache.Get(uid)
	if !ok {
		panic(fmt.Sprintf("core: row %d used without need() before the pull", uid))
	}
	return r
}

// pull executes the batch's remote-row fetch: all ranks broadcast their
// want lists, owners stage the requested rows, and one sparse-row
// all-gather delivers them. Returns the virtual cost of both collectives.
//
//kgelint:hotpath
func (x *partExchanger) pull() (float64, error) {
	payload := part.EncodeIDs(x.cache.Indices())
	reqs, reqCost, err := x.comm.AllGatherBytes(payload, tagPull)
	if err != nil {
		return 0, err
	}
	me := x.comm.Rank()
	x.resp.Clear()
	for src := range reqs {
		if src == me {
			continue // own wants are by construction not owned here
		}
		ids, derr := part.DecodeIDs(x.reqBuf, reqs[src])
		if derr != nil {
			panic(fmt.Sprintf("core: corrupt row-request payload: %v", derr))
		}
		x.reqBuf = ids
		for _, uid := range ids {
			if x.store.owns(uid) {
				copy(x.resp.Row(uid), x.store.row(uid))
			}
		}
	}
	idx, flat := x.resp.Flatten()
	allIdx, allVals, rowCost, err := x.comm.AllGatherRows(idx, flat, tagPull)
	if err != nil {
		return 0, err
	}
	w := x.width
	for src := range allIdx {
		if src == me {
			continue
		}
		vals := allVals[src]
		for k, uid := range allIdx[src] {
			if row, ok := x.cache.Get(uid); ok {
				copy(row, vals[k*w:(k+1)*w])
			}
		}
	}
	return reqCost + rowCost, nil
}

// push returns the batch's gradient rows to their owners: rows of uidG not
// owned here move to the wire (after optional random selection — RS applies
// to communicated rows, §4.2), one all-gather delivers them, and every rank
// folds the contributions addressed to it into x.agg in ascending source
// order (own local contribution at its own position), then averages by 1/P.
// On return uidG holds only the locally-owned rows and x.agg the aggregated
// owned-row gradients; both are valid until the next push.
//
//kgelint:hotpath
func (x *partExchanger) push(uidG *grad.SparseGrad, sel grad.SelectMode, selRng *xrand.RNG) (st grad.SelectStats, cost float64, err error) {
	x.moveBuf = x.moveBuf[:0]
	uidG.ForEach(func(uid int32, _ []float32) {
		if !x.store.owns(uid) {
			x.moveBuf = append(x.moveBuf, uid)
		}
	})
	x.pushG.Clear()
	for _, uid := range x.moveBuf {
		row, _ := uidG.Get(uid)
		copy(x.pushG.Row(uid), row)
		uidG.Drop(uid)
	}
	if sel != grad.SelectAll {
		st = grad.Select(x.pushG, sel, selRng)
	}
	idx, flat := x.pushG.Flatten()
	allIdx, allVals, cost, err := x.comm.AllGatherRows(idx, flat, tagPush)
	if err != nil {
		return st, 0, err
	}
	me := x.comm.Rank()
	w := x.width
	x.agg.Clear()
	for src := range allIdx {
		if src == me {
			// Own batch's contribution to own rows; own wire payload holds
			// only remote-owned rows, so nothing is double counted.
			uidG.ForEach(func(uid int32, row []float32) {
				tensor.Add(row, x.agg.Row(uid))
			})
			continue
		}
		vals := allVals[src]
		for k, uid := range allIdx[src] {
			if x.store.owns(uid) {
				tensor.Add(vals[k*w:(k+1)*w], x.agg.Row(uid))
			}
		}
	}
	scaleRows(x.agg, x.comm.Size())
	return st, cost, nil
}

// workerPartitioned is the per-rank training loop of partitioned mode. It
// mirrors worker's epoch skeleton (timestamps, validation reduction, stats
// recording, plateau/early-stop/budget decisions) so the ledger is
// comparable across modes, but replaces replicas + gradient collectives
// with the shard store + row exchange, and finishes with the collective
// gather that publishes the merged model through t.partFinal.
func (t *trainRun) workerPartitioned(c *mpi.Comm) error {
	cfg := t.cfg
	rank := c.Rank()
	nodes := c.Size()
	shard := t.shards[rank]
	store := newShardStore(t.plan, rank, t.width, t.snap.params)
	x := newPartExchanger(c, store, t.width)

	// One optimizer over the unified shard, indexed by local row id; Adam
	// moments per owned row exactly match the replicated per-table split.
	o := opt.NewByName(cfg.OptimizerName, len(store.uids), t.width)
	plateau := opt.NewPlateau(
		opt.ScaledLR(cfg.BaseLR, nodes, cfg.LRScaleCap),
		cfg.LRFactor, cfg.MinLR, cfg.Tolerance)

	rng := xrand.New(cfg.Seed).Split(uint64(rank + 1))
	var sampler model.Corrupter
	if cfg.NegSampling == "degree" {
		sampler = model.NewDegreeSampler(t.d, rng.Split(2))
	} else {
		sampler = model.NewNegSampler(t.d.NumEntities, rng.Split(2))
	}
	selRng := rng.Split(3)

	uidG := grad.NewSparseGrad(t.width)
	var dropBuf []int32
	batchPos := make([]kg.Triple, 0, cfg.BatchSize)
	cands := make([]kg.Triple, 0, cfg.BatchSize*cfg.NegSamples)
	negBuf := make([]kg.Triple, 0, cfg.NegSamples)
	var valNegs []kg.Triple
	order := make([]int, len(shard))
	for i := range order {
		order[i] = i
	}

	best := -1.0
	sinceBest := 0
	var prevStats simnet.Stats
	var prevTime float64

	for epoch := t.startEpoch + 1; epoch <= cfg.MaxEpochs; epoch++ {
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

		var nnzSum, lossSum float64
		var lossN int
		var selBefore, selDropped int
		var localRefs, remoteRefs int
		lr := float32(plateau.LR())

		for b := 0; b < t.batchesPerEpoch; b++ {
			uidG.Clear()
			x.begin()
			var flops float64

			// Stage the batch — positives and all negative candidates are
			// drawn before the pull so the want list covers every row the
			// batch will touch.
			batchPos = batchPos[:0]
			cands = cands[:0]
			if len(shard) > 0 {
				nIter := cfg.BatchSize
				if len(shard) < nIter {
					nIter = len(shard)
				}
				for i := 0; i < nIter; i++ {
					pos := shard[order[(b*cfg.BatchSize+i)%len(shard)]]
					batchPos = append(batchPos, pos)
					negBuf = sampler.CorruptN(pos, cfg.NegSamples, negBuf)
					cands = append(cands, negBuf...)
					x.need(pos)
					for _, ng := range negBuf {
						x.need(ng)
					}
				}
			}
			localRefs += x.local
			remoteRefs += x.remote

			if _, err := x.pull(); err != nil {
				return err
			}

			for i, pos := range batchPos {
				f, loss, n := t.partTrainExample(x, pos,
					cands[i*cfg.NegSamples:(i+1)*cfg.NegSamples], uidG)
				flops += f
				lossSum += loss
				lossN += n
			}
			flops += dropZeroRows(uidG, &dropBuf)
			nnzSum += float64(uidG.Len())
			t.cluster.AddCompute(rank, flops)

			st, _, err := x.push(uidG, cfg.Select, selRng)
			if err != nil {
				return err
			}
			selBefore += st.Before
			selDropped += st.Dropped
			applyFlops := t.applyOwnedGrads(o, store, x.agg, lr)
			t.cluster.AddCompute(rank, applyFlops)
		}

		// Validation over the rank's shard, with the corrupted triples'
		// rows pulled through the same exchange.
		valRng := xrand.New(cfg.Seed).Split(uint64(5000 + epoch)).Split(uint64(rank))
		correct, total, err := t.partValAccuracy(x, rank, valRng, &valNegs)
		if err != nil {
			return err
		}
		gc, err := c.AllReduceScalar(float64(correct), mpi.OpSum)
		if err != nil {
			return err
		}
		gt, err := c.AllReduceScalar(float64(total), mpi.OpSum)
		if err != nil {
			return err
		}
		valAcc := 50.0
		if gt > 0 {
			valAcc = 100 * gc / gt
		}

		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == t.statsRank {
			now := t.cluster.MaxTime()
			st := t.cluster.Stats()
			es := EpochStats{
				Epoch:       epoch,
				Seconds:     now - prevTime,
				CommSeconds: st.CommSeconds - prevStats.CommSeconds,
				CommBytes:   st.BytesMoved - prevStats.BytesMoved,
				ValAccuracy: valAcc,
				Mode:        "rowexchange",
				LR:          plateau.LR(),
			}
			if t.batchesPerEpoch > 0 {
				es.NonZeroGradRows = nnzSum / float64(t.batchesPerEpoch)
			}
			if lossN > 0 {
				es.TrainLoss = lossSum / float64(lossN)
			}
			if selBefore > 0 {
				es.Sparsity = float64(selDropped) / float64(selBefore)
			}
			if refs := localRefs + remoteRefs; refs > 0 {
				es.RemoteRowFraction = float64(remoteRefs) / float64(refs)
			}
			t.res.PerEpoch = append(t.res.PerEpoch, es)
			t.res.Epochs = epoch
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		if cfg.CheckpointEvery > 0 && epoch%cfg.CheckpointEvery == 0 {
			if err := t.checkpointEpochPart(c, store, epoch); err != nil {
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
		if cfg.MaxVirtualHours > 0 && t.cluster.MaxTime() > cfg.MaxVirtualHours*3600 {
			break
		}
	}

	// Publish the trained model: the stop decisions above are identical on
	// every rank, so all ranks reach this gather together.
	merged, err := t.partMergedParams(c, store)
	if err != nil {
		return err
	}
	if rank == t.statsRank && merged != nil {
		t.partFinal = merged
	}
	return nil
}

// partTrainExample is trainExample over exchanged rows: scores and
// gradients go through the shard/cache views, and gradient rows accumulate
// into the single unified-id SparseGrad. cands holds the example's
// NegSamples pre-drawn corruptions.
func (t *trainRun) partTrainExample(x *partExchanger, pos kg.Triple, cands []kg.Triple, uidG *grad.SparseGrad) (flops, lossSum float64, lossN int) {
	cfg := t.cfg
	m := t.m
	plan := t.plan
	score := func(tr kg.Triple) float32 {
		return m.ScoreRows(x.row(tr.H), x.row(plan.RelationUID(tr.R)), x.row(tr.T))
	}
	accumulate := func(tr kg.Triple, coef float32) {
		m.AccumulateScoreGradRows(
			x.row(tr.H), x.row(plan.RelationUID(tr.R)), x.row(tr.T), coef,
			uidG.Row(tr.H), uidG.Row(plan.RelationUID(tr.R)), uidG.Row(tr.T))
	}

	negs := cands
	if cfg.NegSelect && len(cands) > 1 {
		// §4.5 hardest-candidate selection, over the pulled rows.
		bestI := 0
		bestS := score(cands[0])
		flops += m.ScoreFlops()
		for i := 1; i < len(cands); i++ {
			if s := score(cands[i]); s > bestS {
				bestS, bestI = s, i
			}
			flops += m.ScoreFlops()
		}
		negs = cands[bestI : bestI+1]
	}

	if cfg.LossName == "margin" {
		sPos := score(pos)
		flops += m.ScoreFlops()
		for _, neg := range negs {
			sNeg := score(neg)
			flops += m.ScoreFlops()
			if hinge := float32(cfg.Margin) - sPos + sNeg; hinge > 0 {
				lossSum += float64(hinge)
				accumulate(pos, -1)
				accumulate(neg, 1)
				flops += 2 * m.GradFlops()
			}
			lossN++
		}
		return flops, lossSum, lossN
	}

	sPos := score(pos)
	accumulate(pos, model.LogisticLossGrad(sPos, 1))
	flops += m.ScoreFlops() + m.GradFlops()
	lossSum += float64(model.LogisticLoss(sPos, 1))
	lossN++
	for _, neg := range negs {
		sNeg := score(neg)
		accumulate(neg, model.LogisticLossGrad(sNeg, -1))
		flops += m.ScoreFlops() + m.GradFlops()
		lossSum += float64(model.LogisticLoss(sNeg, -1))
		lossN++
	}
	return flops, lossSum, lossN
}

// applyOwnedGrads is applyGrads against the shard store: aggregated rows
// arrive keyed by unified id and are applied to the owned storage through
// the local index (which also keys the optimizer state).
func (t *trainRun) applyOwnedGrads(o opt.Optimizer, s *shardStore, agg *grad.SparseGrad, lr float32) float64 {
	if agg.Len() == 0 {
		return 0
	}
	o.BeginStep()
	decay := 1 - 2*float32(t.cfg.L2)*lr
	clip := float32(t.cfg.ClipNorm)
	agg.ForEach(func(uid int32, row []float32) {
		if clip > 0 {
			if n := tensor.Nrm2(row); n > clip {
				tensor.Scale(clip/n, row)
			}
		}
		li := s.local[uid]
		pr := s.rows.Row(int(li))
		o.ApplyRow(li, pr, row, lr)
		if t.cfg.L2 > 0 {
			tensor.Scale(decay, pr)
		}
	})
	return float64(agg.Len()*t.width) * 12
}

// partValAccuracy is localValAccuracy over exchanged rows: corruptions are
// pre-drawn so one pull covers the shard's validation triples and their
// negatives. Every rank calls the pull even with an empty shard — it is a
// collective.
func (t *trainRun) partValAccuracy(x *partExchanger, rank int, rng *xrand.RNG, valNegs *[]kg.Triple) (correct, total int, err error) {
	shard := t.valShards[rank]
	n := len(shard)
	if t.perRankValCap > 0 && n > t.perRankValCap {
		n = t.perRankValCap
	}
	sampler := model.NewNegSampler(t.d.NumEntities, rng)
	x.begin()
	negs := (*valNegs)[:0]
	for i := 0; i < n; i++ {
		tr := shard[i]
		neg := sampler.Corrupt(tr)
		negs = append(negs, neg)
		x.need(tr)
		x.need(neg)
	}
	*valNegs = negs
	if _, err := x.pull(); err != nil {
		return 0, 0, err
	}
	plan := t.plan
	for i := 0; i < n; i++ {
		tr := shard[i]
		neg := negs[i]
		sp := t.m.ScoreRows(x.row(tr.H), x.row(plan.RelationUID(tr.R)), x.row(tr.T))
		sn := t.m.ScoreRows(x.row(neg.H), x.row(plan.RelationUID(neg.R)), x.row(neg.T))
		if sp > sn {
			correct++
		}
		total++
	}
	return correct, total, nil
}

// partMergedParams is the gather half of the shard-aware checkpoint: every
// rank contributes its owned rows through one sparse-row all-gather (each
// row has exactly one owner, so coverage is exact, not averaged), and the
// stats rank assembles the full model. Other ranks return nil — in a
// channel world only rank 0 needs the assembly; in a process world every
// process is its own stats rank and keeps its own copy.
func (t *trainRun) partMergedParams(c *mpi.Comm, s *shardStore) (*model.Params, error) {
	// Fresh copies: the all-gather contract takes ownership of the payload,
	// and s.uids / s.rows.Data stay live in the store.
	idx := append([]int32(nil), s.uids...)
	vals := append([]float32(nil), s.rows.Data...)
	allIdx, allVals, _, err := c.AllGatherRows(idx, vals, tagCheckpoint)
	if err != nil {
		return nil, err
	}
	if c.Rank() != t.statsRank {
		return nil, nil
	}
	merged := model.NewParams(t.m, t.d.NumEntities, t.d.NumRelations)
	w := t.width
	for src := range allIdx {
		for k, uid := range allIdx[src] {
			copy(snapshotRow(merged, t.plan, uid), allVals[src][k*w:(k+1)*w])
		}
	}
	return merged, nil
}

// checkpointEpochPart takes the partitioned snapshot. Unlike the replicated
// paths (shared-memory merge in the channel world, collective merge in the
// process world — different virtual costs), this one protocol runs in both
// worlds: collective gather, stats-rank snapshot bookkeeping, rank-0 disk
// write, and a max-reduced verdict so every rank stops together on a write
// failure. The storage-write charge lands once per cluster — the stats rank
// is rank 0 on the shared channel cluster and every process on its own
// private cluster.
func (t *trainRun) checkpointEpochPart(c *mpi.Comm, s *shardStore, epoch int) error {
	merged, err := t.partMergedParams(c, s)
	if err != nil {
		return err
	}
	if c.Rank() == t.statsRank {
		t.snap.epoch = epoch
		t.snap.params = merged
		t.rec.Checkpoints++
		bytes := int64(4 * t.width * t.plan.Rows())
		cost, _, _ := t.cluster.PointToPointCost(bytes)
		t.cluster.Collective(cost, bytes, int64(c.Size()), tagCheckpoint)
	}
	var flag float64
	if c.Rank() == 0 {
		t.ckptErr = nil
		if t.cfg.CheckpointPath != "" {
			t.ckptErr = model.SaveCheckpoint(t.cfg.CheckpointPath, t.m, merged)
		}
		if t.ckptErr != nil {
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
	if c.Rank() == 0 {
		return fmt.Errorf("core: checkpoint at epoch %d: %w", epoch, t.ckptErr)
	}
	return fmt.Errorf("core: checkpoint at epoch %d failed on rank 0", epoch)
}
