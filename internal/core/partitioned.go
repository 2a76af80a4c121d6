package core

// Partitioned-table training (ROADMAP item 2): instead of replicating the
// full embedding tables on every rank, a partition.Plan assigns each entity
// row and relation row exactly one owner, each rank materializes only its
// owned shard (shardStore), and shardTables answers the epoch loop's row seam
// with owner-addressed mpi.AllToAllRows exchanges — every row travels only
// from the rank that has it to the rank that needs it — so the mode runs
// unchanged on the channel world and the process/TCP world:
//
//	pull — one request (each owner gets the ascending ids wanted from it)
//	       and one reply (each owner answers each requester with values
//	       only, in that requester's id order); the rank caches the rows
//	       for the staging.
//	push — each gradient row of a remote-owned row goes to its owner, which
//	       folds the contributions in ascending source order, averages by
//	       1/P, and applies them with its own optimizer state.
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

// checkPeerID vets a row id that arrived from rank src. Ids come off the
// wire, so one outside the unified id space or one this rank does not own is
// an error naming the peer — never an index panic, and never a silently
// skipped row, which would misalign every row after it in a values-only
// reply.
func (s *shardStore) checkPeerID(src int, uid int32) error {
	if uid >= 0 && int(uid) < len(s.local) && s.local[uid] >= 0 {
		return nil
	}
	return peerRowError(src, uid, len(s.local))
}

// reply builds the values-only answer to rank src's request ids: the owned
// rows in request order, written over dst's storage.
func (s *shardStore) reply(dst []float32, src int, ids []int32) ([]float32, error) {
	dst = dst[:0]
	for _, uid := range ids {
		if err := s.checkPeerID(src, uid); err != nil {
			return dst, err
		}
		dst = append(dst, s.row(uid)...)
	}
	return dst, nil
}

// peerRowError reports a row id rank src sent that this rank cannot serve.
func peerRowError(src int, uid int32, rows int) error {
	return fmt.Errorf("core: rank %d sent row id %d, which is not one of this rank's rows in [0, %d)", src, uid, rows)
}

// peerBlockError reports a block from rank src whose value count does not
// match the rows it stands for.
func peerBlockError(src, got, want int) error {
	return fmt.Errorf("core: rank %d sent %d values, want %d", src, got, want)
}

// shardTables is the partitioned rankTables: a staging announces its triples'
// rows (need), fetches the remote ones into a cache (pull) and resolves rows
// against the shard or that cache; closing a batch pushes gradient rows back
// to their owners, and each owner applies what it owns. All scratch (row
// cache, push/aggregate SparseGrads, touch stamps, outgoing blocks) is reused
// across batches, so the steady-state exchange allocates nothing but the
// collective's per-call bookkeeping.
type shardTables struct {
	t      *trainRun
	comm   *mpi.Comm
	store  *shardStore
	o      opt.Optimizer
	selRng *xrand.RNG

	uidG  *grad.SparseGrad // the batch's gradient rows, entity and relation, by uid
	cache *grad.SparseGrad // pulled remote rows, keyed by uid; valid for one staging
	pushG *grad.SparseGrad // gradient rows leaving for their owners
	agg   *grad.SparseGrad // aggregated gradients for rows this rank owns

	stamp []int32 // staging stamp per unified row id, for unique-touch counting
	gen   int32
	local int // unique owned rows touched this staging (remote ones: cache.Len())

	// Outgoing and incoming all-to-all blocks, one per peer rank. A sent
	// block belongs to its receiver (mpi.AllToAllRows), so after every
	// exchange the blocks this rank received — read by it alone — become
	// its outgoing storage.
	outIdx  [][]int32
	outVals [][]float32
	inIdx   [][]int32
	inVals  [][]float32
	nwant   []int // rows wanted from each owner this pull, then its reply cursor

	moveBuf []int32 // owned/remote split scratch in closeBatch
}

func newShardTables(t *trainRun, c *mpi.Comm, selRng *xrand.RNG) *shardTables {
	store := newShardStore(t.plan, c.Rank(), t.width, t.snap.params)
	return &shardTables{
		t:     t,
		comm:  c,
		store: store,
		// One optimizer over the unified shard, indexed by local row id; Adam
		// moments per owned row exactly match the replicated per-table split.
		o:       opt.NewByName(t.cfg.OptimizerName, len(store.uids), t.width),
		selRng:  selRng,
		uidG:    grad.NewSparseGrad(t.width),
		cache:   grad.NewSparseGrad(t.width),
		pushG:   grad.NewSparseGrad(t.width),
		agg:     grad.NewSparseGrad(t.width),
		stamp:   make([]int32, t.plan.Rows()),
		outIdx:  make([][]int32, c.Size()),
		outVals: make([][]float32, c.Size()),
		inIdx:   make([][]int32, c.Size()),
		inVals:  make([][]float32, c.Size()),
		nwant:   make([]int, c.Size()),
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

// pull executes the batch's remote-row fetch in two owner-addressed
// exchanges: each owner receives the ascending ids wanted from it, and
// answers each requester with the rows' values only, in that requester's
// order.
func (x *shardTables) pull() error {
	plan, me, w := x.t.plan, x.comm.Rank(), x.t.width
	for d := range x.outIdx {
		x.outIdx[d] = x.outIdx[d][:0]
		x.nwant[d] = 0
	}
	for _, uid := range x.cache.Indices() {
		d := plan.Owner(uid)
		x.outIdx[d] = append(x.outIdx[d], uid)
		x.nwant[d]++
	}
	if _, err := x.comm.AllToAllRows(x.outIdx, nil, x.inIdx, nil, tagPull); err != nil {
		return err
	}
	for src, ids := range x.inIdx {
		if src == me {
			continue
		}
		vals, err := x.store.reply(x.outVals[src], src, ids)
		if err != nil {
			return err
		}
		x.outVals[src] = vals
	}
	copy(x.outIdx, x.inIdx)
	if _, err := x.comm.AllToAllRows(nil, x.outVals, nil, x.inVals, tagPull); err != nil {
		return err
	}
	for d, vals := range x.inVals {
		if d != me && len(vals) != x.nwant[d]*w {
			return peerBlockError(d, len(vals), x.nwant[d]*w)
		}
		x.nwant[d] = 0 // from here on, the read cursor into owner d's reply
	}
	// The cache walks its ids in ascending order, so each owner's reply is
	// consumed in the order its request listed them.
	x.cache.ForEach(func(uid int32, row []float32) {
		d := plan.Owner(uid)
		k := x.nwant[d]
		copy(row, x.inVals[d][k*w:(k+1)*w])
		x.nwant[d]++
	})
	copy(x.outVals, x.inVals)
	return nil
}

// push returns the staged gradient rows of x.pushG to their owners in one
// owner-addressed exchange, and every rank folds the contributions it
// receives into x.agg in ascending source order (own rows of uidG at its
// own position), then averages by 1/P. On return x.agg holds the aggregated
// owned-row gradients, valid until the next push.
func (x *shardTables) push() error {
	plan, me, w := x.t.plan, x.comm.Rank(), x.t.width
	for d := range x.outIdx {
		x.outIdx[d] = x.outIdx[d][:0]
		x.outVals[d] = x.outVals[d][:0]
	}
	x.pushG.ForEach(func(uid int32, row []float32) {
		d := plan.Owner(uid)
		x.outIdx[d] = append(x.outIdx[d], uid)
		x.outVals[d] = append(x.outVals[d], row...)
	})
	if _, err := x.comm.AllToAllRows(x.outIdx, x.outVals, x.inIdx, x.inVals, tagPush); err != nil {
		return err
	}
	x.agg.Clear()
	for src, ids := range x.inIdx {
		if src == me {
			// Own batch's contribution to own rows; rows owned elsewhere
			// left uidG for the wire, so nothing is double counted.
			x.uidG.ForEach(func(uid int32, row []float32) {
				tensor.Add(row, x.agg.Row(uid))
			})
			continue
		}
		vals := x.inVals[src]
		if len(vals) != len(ids)*w {
			return peerBlockError(src, len(vals), len(ids)*w)
		}
		for k, uid := range ids {
			if err := x.store.checkPeerID(src, uid); err != nil {
				return err
			}
			tensor.Add(vals[k*w:(k+1)*w], x.agg.Row(uid))
		}
	}
	copy(x.outIdx, x.inIdx)
	copy(x.outVals, x.inVals)
	scaleRows(x.agg, x.comm.Size())
	return nil
}

func (x *shardTables) EntityRow(id int32) []float32 { return x.row(id) }

func (x *shardTables) RelationRow(id int32) []float32 { return x.row(x.t.plan.RelationUID(id)) }

func (x *shardTables) entGrad(id int32) []float32 { return x.uidG.Row(id) }

func (x *shardTables) relGrad(id int32) []float32 { return x.uidG.Row(x.t.plan.RelationUID(id)) }

// closeBatch moves the batch's gradient rows of remote-owned rows from uidG
// to pushG, applies random selection to them (RS applies to communicated
// rows, §4.2) and charges its norm pass before the push, as the replicated
// path does; then it pushes and applies the owned-row aggregate.
func (x *shardTables) closeBatch(_ int, flops float64, lr float32, ep *epochTally) error {
	t, rank := x.t, x.comm.Rank()
	ep.localRefs += x.local
	ep.remoteRefs += x.cache.Len()
	flops += dropZeroRows(x.uidG)
	ep.nnzSum += float64(x.uidG.Len())

	x.moveBuf = x.moveBuf[:0]
	x.uidG.ForEach(func(uid int32, _ []float32) {
		if !x.store.owns(uid) {
			x.moveBuf = append(x.moveBuf, uid)
		}
	})
	x.pushG.Clear()
	for _, uid := range x.moveBuf {
		row, _ := x.uidG.Get(uid)
		copy(x.pushG.Row(uid), row)
		x.uidG.Drop(uid)
	}
	if sel := t.cfg.Select; sel != grad.SelectAll {
		st := grad.Select(x.pushG, sel, x.selRng)
		ep.selBefore += st.Before
		ep.selDropped += st.Dropped
		flops += float64(st.Before*t.width) * 2
	}
	t.cluster.AddCompute(rank, flops)

	if err := x.push(); err != nil {
		return err
	}
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
