package core

// Partitioned-table training (ROADMAP item 2): instead of replicating the
// full embedding tables on every rank, a partition.Plan assigns each entity
// row and relation row exactly one owner, each rank materializes only its
// owned shard (shardStore), and shardTables answers the epoch loop's row seam
// with a two-phase exchange of plain mpi collectives, so the mode runs
// unchanged on the channel world and the process/TCP world:
//
//	pull — all-gather the staging's wanted remote row ids, then all-gather
//	       the owners' replies; the rank caches the rows for the staging.
//	push — all-gather the gradient rows of remote-owned rows; each owner
//	       folds in the contributions addressed to it, averages by 1/P, and
//	       applies them with its own optimizer state.
//
// The plan is a pure function of (Config, dataset, world size), so survivors
// of a failure re-partition deterministically and warm-start their new shards
// from the snapshot.

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

// shardTables is the partitioned rankTables: a staging announces its triples'
// rows (need), fetches the remote ones into a cache (pull) and resolves rows
// against the shard or that cache; closing a batch pushes gradient rows back
// to their owners, and each owner applies what it owns. All scratch (decode
// buffer, row cache, response/push/aggregate SparseGrads, touch stamps) is
// reused across batches; the only fresh allocations are the wire payloads,
// whose ownership the all-gather contract transfers to the world.
type shardTables struct {
	t      *trainRun
	comm   *mpi.Comm
	store  *shardStore
	o      opt.Optimizer
	selRng *xrand.RNG

	uidG  *grad.SparseGrad // the batch's gradient rows, entity and relation, by uid
	cache *grad.SparseGrad // pulled remote rows, keyed by uid; valid for one staging
	resp  *grad.SparseGrad // owned rows staged for peers' requests
	pushG *grad.SparseGrad // gradient rows leaving for their owners
	agg   *grad.SparseGrad // aggregated gradients for rows this rank owns

	stamp []int32 // staging stamp per unified row id, for unique-touch counting
	gen   int32
	local int // unique owned rows touched this staging (remote ones: cache.Len())

	reqBuf  []int32 // DecodeIDs scratch
	moveBuf []int32 // owned/remote split scratch in push
	dropBuf []int32 // dropZeroRows scratch
}

func newShardTables(t *trainRun, c *mpi.Comm, selRng *xrand.RNG) *shardTables {
	store := newShardStore(t.plan, c.Rank(), t.width, t.snap.params)
	return &shardTables{
		t:     t,
		comm:  c,
		store: store,
		// One optimizer over the unified shard, indexed by local row id; Adam
		// moments per owned row exactly match the replicated per-table split.
		o:      opt.NewByName(t.cfg.OptimizerName, len(store.uids), t.width),
		selRng: selRng,
		uidG:   grad.NewSparseGrad(t.width),
		cache:  grad.NewSparseGrad(t.width),
		resp:   grad.NewSparseGrad(t.width),
		pushG:  grad.NewSparseGrad(t.width),
		agg:    grad.NewSparseGrad(t.width),
		stamp:  make([]int32, t.plan.Rows()),
	}
}

// begin opens a staging: forgets the last one's pulled rows and touch counts.
func (x *shardTables) begin() {
	x.gen++
	x.cache.Clear()
	x.local = 0
}

// need marks the three rows a triple touches, materializing want-list
// entries for the remote ones.
//
//kgelint:hotpath
func (x *shardTables) need(t kg.Triple) {
	x.needRow(t.H)
	x.needRow(x.t.plan.RelationUID(t.R))
	x.needRow(t.T)
}

func (x *shardTables) needRow(uid int32) {
	if x.stamp[uid] == x.gen {
		return
	}
	x.stamp[uid] = x.gen
	if x.store.owns(uid) {
		x.local++
		return
	}
	x.cache.Row(uid) // zero row = want-list entry, overwritten by pull
}

// row resolves a unified row id against the shard or the staging's cache.
// Every uid reaching here was announced via need before the pull.
//
//kgelint:hotpath
func (x *shardTables) row(uid int32) []float32 {
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
// all-gather delivers them.
//
//kgelint:hotpath
func (x *shardTables) pull() error {
	payload := part.EncodeIDs(x.cache.Indices())
	reqs, _, err := x.comm.AllGatherBytes(payload, tagPull)
	if err != nil {
		return err
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
	allIdx, allVals, _, err := x.comm.AllGatherRows(idx, flat, tagPull)
	if err != nil {
		return err
	}
	w := x.t.width
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
	return nil
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
func (x *shardTables) push() (st grad.SelectStats, err error) {
	uidG := x.uidG
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
	if sel := x.t.cfg.Select; sel != grad.SelectAll {
		st = grad.Select(x.pushG, sel, x.selRng)
	}
	idx, flat := x.pushG.Flatten()
	allIdx, allVals, _, err := x.comm.AllGatherRows(idx, flat, tagPush)
	if err != nil {
		return st, err
	}
	me := x.comm.Rank()
	w := x.t.width
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
	return st, nil
}

//kgelint:hotpath
func (x *shardTables) EntityRow(id int32) []float32 { return x.row(id) }

//kgelint:hotpath
func (x *shardTables) RelationRow(id int32) []float32 { return x.row(x.t.plan.RelationUID(id)) }

//kgelint:hotpath
func (x *shardTables) entGrad(id int32) []float32 { return x.uidG.Row(id) }

//kgelint:hotpath
func (x *shardTables) relGrad(id int32) []float32 { return x.uidG.Row(x.t.plan.RelationUID(id)) }

func (x *shardTables) closeBatch(_ int, flops float64, lr float32, ep *epochTally) error {
	t, rank := x.t, x.comm.Rank()
	ep.localRefs += x.local
	ep.remoteRefs += x.cache.Len()
	flops += dropZeroRows(x.uidG, &x.dropBuf)
	ep.nnzSum += float64(x.uidG.Len())
	t.cluster.AddCompute(rank, flops)

	st, err := x.push()
	if err != nil {
		return err
	}
	ep.selBefore += st.Before
	ep.selDropped += st.Dropped
	t.cluster.AddCompute(rank, t.applyGrads(x.o, x.store.rows, x.store.local, x.agg, lr))
	x.uidG.Clear()
	return nil
}

func (x *shardTables) closeEpoch(_ int, ep *epochTally) error {
	ep.stats.Mode = "rowexchange"
	return nil
}

// ownedRows lists the whole shard — each row has exactly one owner, so the
// merge's coverage is exact, not averaged. Fresh copies: the all-gather
// contract takes ownership of the payload, and the store stays live.
func (x *shardTables) ownedRows() (uids []int32, vals []float32) {
	return append([]int32(nil), x.store.uids...), append([]float32(nil), x.store.rows.Data...)
}
