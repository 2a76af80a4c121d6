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
// channel world and the process/TCP world. The epoch loop, the checkpoint
// protocol and recovery are the shared ones in trainer.go: the plan is a pure
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
	"kgedist/internal/tensor"
	"kgedist/internal/xrand"
)

// shardStore is one rank's slice of the embedding tables: the rows it owns
// under the plan, stored densely in ascending-uid order. It is the whole
// memory claim of partitioned mode — len(uids) rows instead of the full
// NumEntities+NumRelations.
type shardStore struct {
	plan  *part.Plan
	uids  []int32        // local index -> unified row id, ascending
	local []int32        // unified row id -> local index, -1 if unowned
	rows  *tensor.Matrix // owned rows, indexed by local index
}

// newShardStore materializes rank's shard, warm-starting every owned row
// from the full snapshot params (the scatter half of the shard-aware
// checkpoint protocol; the gather half is trainRun.mergedModel).
func newShardStore(plan *part.Plan, rank, width int, src *model.Params) *shardStore {
	uids := plan.OwnedUIDs(rank)
	s := &shardStore{
		plan:  plan,
		uids:  uids,
		local: make([]int32, plan.Rows()),
		rows:  tensor.NewMatrix(len(uids), width),
	}
	for i := range s.local {
		s.local[i] = -1
	}
	for li, uid := range uids {
		s.local[uid] = int32(li)
		copy(s.rows.Row(li), modelRow(src, uid))
	}
	return s
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

// shardTables is the partitioned rankTables: the rank holds only its owned
// shard, and every batch stages its triples, pulls the remote rows they
// touch, and pushes gradient rows back to their owners.
type shardTables struct {
	t       *trainRun
	c       *mpi.Comm
	x       *partExchanger // owns the shard store
	o       opt.Optimizer
	sampler model.Corrupter
	selRng  *xrand.RNG

	uidG    *grad.SparseGrad
	dropBuf []int32
	cands   []kg.Triple // every batch (or validation) triple's pre-drawn corruptions
	negBuf  []kg.Triple
}

func newShardTables(t *trainRun, c *mpi.Comm, sampler model.Corrupter, selRng *xrand.RNG) *shardTables {
	cfg := t.cfg
	store := newShardStore(t.plan, c.Rank(), t.width, t.snap.params)
	return &shardTables{
		t: t,
		c: c,
		x: newPartExchanger(c, store, t.width),
		// One optimizer over the unified shard, indexed by local row id; Adam
		// moments per owned row exactly match the replicated per-table split.
		o:       opt.NewByName(cfg.OptimizerName, len(store.uids), t.width),
		sampler: sampler,
		selRng:  selRng,
		uidG:    grad.NewSparseGrad(t.width),
		cands:   make([]kg.Triple, 0, cfg.BatchSize*cfg.NegSamples),
		negBuf:  make([]kg.Triple, 0, cfg.NegSamples),
	}
}

func (s *shardTables) trainBatch(_ int, batch []kg.Triple, lr float32, ep *epochTally) error {
	t, cfg, x, uidG := s.t, s.t.cfg, s.x, s.uidG
	rank := s.c.Rank()
	uidG.Clear()
	x.begin()
	var flops float64

	// Stage the batch — positives and all negative candidates are drawn
	// before the pull so the want list covers every row the batch will
	// touch.
	s.cands = s.cands[:0]
	for _, pos := range batch {
		s.negBuf = s.sampler.CorruptN(pos, cfg.NegSamples, s.negBuf)
		s.cands = append(s.cands, s.negBuf...)
		x.need(pos)
		for _, ng := range s.negBuf {
			x.need(ng)
		}
	}
	ep.localRefs += x.local
	ep.remoteRefs += x.remote

	if _, err := x.pull(); err != nil {
		return err
	}

	for i, pos := range batch {
		f, loss, n := t.partTrainExample(x, pos,
			s.cands[i*cfg.NegSamples:(i+1)*cfg.NegSamples], uidG)
		flops += f
		ep.lossSum += loss
		ep.lossN += n
	}
	flops += dropZeroRows(uidG, &s.dropBuf)
	ep.nnzSum += float64(uidG.Len())
	t.cluster.AddCompute(rank, flops)

	st, _, err := x.push(uidG, cfg.Select, s.selRng)
	if err != nil {
		return err
	}
	ep.selBefore += st.Before
	ep.selDropped += st.Dropped
	applyFlops := t.applyOwnedGrads(s.o, x.store, x.agg, lr)
	t.cluster.AddCompute(rank, applyFlops)
	return nil
}

func (s *shardTables) closeEpoch(_ int, ep *epochTally) error {
	ep.stats.Mode = "rowexchange"
	return nil
}

// ownedRows lists the whole shard — each row has exactly one owner, so the
// merge's coverage is exact, not averaged. Fresh copies: the all-gather
// contract takes ownership of the payload, and the store stays live.
func (s *shardTables) ownedRows() (uids []int32, vals []float32) {
	return append([]int32(nil), s.x.store.uids...), append([]float32(nil), s.x.store.rows.Data...)
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

// validate scores over exchanged rows: corruptions are pre-drawn so one pull
// covers the validation triples and their negatives. Every rank calls the
// pull even with nothing to score — it is a collective.
func (s *shardTables) validate(val []kg.Triple, sampler *model.NegSampler) (correct int, err error) {
	x, m, plan := s.x, s.t.m, s.t.plan
	x.begin()
	s.cands = s.cands[:0]
	for _, tr := range val {
		neg := sampler.Corrupt(tr)
		s.cands = append(s.cands, neg)
		x.need(tr)
		x.need(neg)
	}
	if _, err := x.pull(); err != nil {
		return 0, err
	}
	for i, tr := range val {
		neg := s.cands[i]
		sp := m.ScoreRows(x.row(tr.H), x.row(plan.RelationUID(tr.R)), x.row(tr.T))
		sn := m.ScoreRows(x.row(neg.H), x.row(plan.RelationUID(neg.R)), x.row(neg.T))
		if sp > sn {
			correct++
		}
	}
	return correct, nil
}
