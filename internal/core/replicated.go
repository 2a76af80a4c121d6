package core

import (
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/opt"
	"kgedist/internal/xrand"
)

// replicaTables is the replicated rankTables: the rank holds a full model
// replica (the Horovod scheme; the embedded params resolve every row, so
// staging is a no-op) and every batch's gradients go through the exchanger's
// collectives, so replicas stay bit-identical except for the rank-private
// relation rows under RP. Each matrix keeps its own gradient accumulator and
// optimizer: RS's mean norm is per matrix, and an optimizer skips the step
// its aggregate is empty in.
type replicaTables struct {
	*model.Params
	t      *trainRun
	c      *mpi.Comm
	selRng *xrand.RNG
	x      *exchanger
	entOpt opt.Optimizer
	relOpt opt.Optimizer

	entG *grad.SparseGrad
	relG *grad.SparseGrad

	mode   string // exchange in effect: "allreduce", "allgather" or "dyncomp"
	probed int    // last epoch the dynamic probe ran in (one probe per epoch)
}

func newReplicaTables(t *trainRun, c *mpi.Comm, selRng, xRng *xrand.RNG) *replicaTables {
	cfg := t.cfg
	r := &replicaTables{
		Params: t.perRank[c.Rank()],
		t:      t,
		c:      c,
		selRng: selRng,
		x:      newExchanger(cfg, c, t.width, t.d.NumEntities, t.d.NumRelations, xRng),
		entOpt: opt.NewByName(cfg.OptimizerName, t.d.NumEntities, t.width),
		relOpt: opt.NewByName(cfg.OptimizerName, t.d.NumRelations, t.width),
		entG:   grad.NewSparseGrad(t.width),
		relG:   grad.NewSparseGrad(t.width),
		mode:   cfg.Comm.String(),
	}
	if cfg.Comm == CommDynamic {
		r.mode = "allreduce" // until a probe finds all-gather cheaper (§4.1)
	}
	return r
}

func (r *replicaTables) begin()         {}
func (r *replicaTables) need(kg.Triple) {}
func (r *replicaTables) pull() error    { return nil }

func (r *replicaTables) entGrad(id int32) []float32 { return r.entG.Row(id) }

func (r *replicaTables) relGrad(id int32) []float32 { return r.relG.Row(id) }

func (r *replicaTables) closeBatch(epoch int, flops float64, lr float32, ep *epochTally) error {
	t, cfg, x := r.t, r.t.cfg, r.x
	entG, relG := r.entG, r.relG
	rank := r.c.Rank()
	// Drop numerically-zero rows (saturated triples contribute vanishing
	// gradients as training converges — Figure 2).
	flops += dropZeroRows(entG)
	flops += dropZeroRows(relG)
	ep.nnzSum += float64(entG.Len())

	// Random selection of gradient vectors (§4.2) applies to the
	// communicated matrices; relation gradients under RP stay local and
	// full precision (§4.4).
	if cfg.Select != grad.SelectAll {
		st := grad.Select(entG, cfg.Select, r.selRng)
		ep.selBefore += st.Before
		ep.selDropped += st.Dropped
		flops += float64(st.Before*t.width) * 2
		if !cfg.RelationPartition {
			st = grad.Select(relG, cfg.Select, r.selRng)
			ep.selBefore += st.Before
			ep.selDropped += st.Dropped
			flops += float64(st.Before*t.width) * 2
		}
	}
	// Adaptive compression statistics (DESIGN.md §13): the raw post-drop
	// entity gradient feeds the controller before the pipeline's
	// residual/selection touch it.
	flops += x.observe(entG)
	t.cluster.AddCompute(rank, flops)

	entAgg, relAgg, cost, err := x.exchange(entG, relG, r.mode)
	if err != nil {
		return err
	}

	// Dynamic strategy probe (§4.1): on every ProbeEvery-th epoch, while
	// still in all-reduce, time one all-gather of the same payload and
	// switch permanently if it is cheaper.
	if cfg.Comm == CommDynamic && r.mode == "allreduce" && r.probed != epoch && epoch%cfg.ProbeEvery == 0 {
		r.probed = epoch
		gCost, err := x.probeAllGather(entG, relG)
		if err != nil {
			return err
		}
		if gCost < cost {
			r.mode = "allgather"
			if rank == t.statsRank {
				t.res.SwitchedAtEpoch = epoch
			}
		}
	}

	// Apply the aggregated gradients with decoupled L2 decay.
	applyFlops := t.applyGrads(r.entOpt, r.Entity, nil, entAgg, lr)
	applyFlops += t.applyGrads(r.relOpt, r.Relation, nil, relAgg, lr)
	t.cluster.AddCompute(rank, applyFlops)
	entG.Clear()
	relG.Clear()
	return nil
}

// closeEpoch is the adaptive-compression epoch boundary: sum the controller
// statistics across ranks and evaluate the ladder's decision rule everywhere
// (identical inputs, identical verdict — DESIGN.md §13). The rung recorded is
// the one this epoch's exchanges ran at; a step takes effect from the next
// epoch.
func (r *replicaTables) closeEpoch(epoch int, ep *epochTally) error {
	ep.stats.Mode = r.mode
	if r.t.cfg.Comm != CommDynamicCompress {
		return nil
	}
	probe, sb, sd, err := r.x.advanceCompression()
	if err != nil {
		return err
	}
	ep.stats.Level = probe.Level.String()
	ep.stats.GradEntropy = probe.Entropy
	ep.selBefore += sb
	ep.selDropped += sd
	if probe.Stepped && r.c.Rank() == r.t.statsRank {
		r.t.res.CompressionSteps = append(r.t.res.CompressionSteps, CompressionStep{
			Epoch: epoch + 1, Level: probe.Next.String(),
		})
	}
	return nil
}

// ownedRows lists the relation rows this rank owns under RP (entity rows are
// replicated, and without RP so are the relation rows: nothing to list).
func (r *replicaTables) ownedRows() (uids []int32, vals []float32) {
	for rel, owner := range r.t.relOwner {
		if owner == r.c.Rank() {
			uids = append(uids, int32(r.t.d.NumEntities+rel))
			vals = append(vals, r.Relation.Row(rel)...)
		}
	}
	return uids, vals
}
