package core

import (
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/opt"
	"kgedist/internal/tensor"
	"kgedist/internal/xrand"
)

// replicaTables is the replicated rankTables: the rank holds a full model
// replica (the Horovod scheme) and every batch's gradients go through the
// exchanger's collectives, so replicas stay bit-identical except for the
// rank-private relation rows under RP.
type replicaTables struct {
	t       *trainRun
	c       *mpi.Comm
	params  *model.Params
	sampler model.Corrupter
	selRng  *xrand.RNG
	x       *exchanger
	entOpt  opt.Optimizer
	relOpt  opt.Optimizer

	entG    *grad.SparseGrad
	relG    *grad.SparseGrad
	negBuf  []kg.Triple
	dropBuf []int32 // dropZeroRows scratch, reused across batches

	mode   string // exchange in effect: "allreduce", "allgather" or "dyncomp"
	probed int    // last epoch the dynamic probe ran in (one probe per epoch)
}

func newReplicaTables(t *trainRun, c *mpi.Comm, sampler model.Corrupter, selRng, xRng *xrand.RNG) *replicaTables {
	cfg := t.cfg
	r := &replicaTables{
		t:       t,
		c:       c,
		params:  t.perRank[c.Rank()],
		sampler: sampler,
		selRng:  selRng,
		x:       newExchanger(cfg, c, t.width, t.d.NumEntities, t.d.NumRelations, xRng),
		entOpt:  opt.NewByName(cfg.OptimizerName, t.d.NumEntities, t.width),
		relOpt:  opt.NewByName(cfg.OptimizerName, t.d.NumRelations, t.width),
		entG:    grad.NewSparseGrad(t.width),
		relG:    grad.NewSparseGrad(t.width),
		negBuf:  make([]kg.Triple, 0, cfg.NegSamples),
		mode:    cfg.Comm.String(),
	}
	if cfg.Comm == CommDynamic {
		r.mode = "allreduce" // until a probe finds all-gather cheaper (§4.1)
	}
	return r
}

func (r *replicaTables) trainBatch(epoch int, batch []kg.Triple, lr float32, ep *epochTally) error {
	t, cfg, x := r.t, r.t.cfg, r.x
	entG, relG := r.entG, r.relG
	rank := r.c.Rank()
	entG.Clear()
	relG.Clear()
	var flops float64
	for _, pos := range batch {
		f, loss, n := t.trainExample(r.params, pos, r.sampler, entG, relG, r.negBuf)
		flops += f
		ep.lossSum += loss
		ep.lossN += n
	}
	// Drop numerically-zero rows (saturated triples contribute vanishing
	// gradients as training converges — Figure 2).
	flops += dropZeroRows(entG, &r.dropBuf)
	flops += dropZeroRows(relG, &r.dropBuf)
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
	applyFlops := t.applyGrads(r.entOpt, r.params.Entity, entAgg, lr)
	applyFlops += t.applyGrads(r.relOpt, r.params.Relation, relAgg, lr)
	t.cluster.AddCompute(rank, applyFlops)
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

func (r *replicaTables) validate(val []kg.Triple, sampler *model.NegSampler) (correct int, err error) {
	m := r.t.m
	for _, tr := range val {
		if m.Score(r.params, tr) > m.Score(r.params, sampler.Corrupt(tr)) {
			correct++
		}
	}
	return correct, nil
}

// ownedRows lists the relation rows this rank owns under RP (entity rows are
// replicated, and without RP so are the relation rows: nothing to list).
func (r *replicaTables) ownedRows() (uids []int32, vals []float32) {
	for rel, owner := range r.t.relOwner {
		if owner == r.c.Rank() {
			uids = append(uids, int32(r.t.d.NumEntities+rel))
			vals = append(vals, r.params.Relation.Row(rel)...)
		}
	}
	return uids, vals
}

// trainExample processes one positive triple and its negatives under the
// configured objective and sampling scheme. It returns the flops spent, the
// summed per-example loss, and the number of loss terms contributing (so the
// caller can track a mean training loss per epoch).
func (t *trainRun) trainExample(p *model.Params, pos kg.Triple, sampler model.Corrupter, entG, relG *grad.SparseGrad, negBuf []kg.Triple) (flops, lossSum float64, lossN int) {
	cfg := t.cfg
	var negs []kg.Triple
	if cfg.NegSelect {
		neg, extra := model.SelectHardest(t.m, p, sampler, pos, cfg.NegSamples, negBuf)
		flops += float64(extra) * t.m.ScoreFlops()
		negs = append(negBuf[:0], neg)
	} else {
		negs = sampler.CorruptN(pos, cfg.NegSamples, negBuf)
	}
	if cfg.LossName == "margin" {
		// Pairwise margin ranking: L = max(0, gamma - s(pos) + s(neg)).
		sPos := t.m.Score(p, pos)
		flops += t.m.ScoreFlops()
		for _, neg := range negs {
			sNeg := t.m.Score(p, neg)
			flops += t.m.ScoreFlops()
			if hinge := float32(cfg.Margin) - sPos + sNeg; hinge > 0 {
				lossSum += float64(hinge)
				t.m.AccumulateScoreGrad(p, pos, -1, entG.Row(pos.H), relG.Row(pos.R), entG.Row(pos.T))
				t.m.AccumulateScoreGrad(p, neg, 1, entG.Row(neg.H), relG.Row(neg.R), entG.Row(neg.T))
				flops += 2 * t.m.GradFlops()
			}
			lossN++
		}
		return flops, lossSum, lossN
	}
	f, l := t.accumulateTriple(p, pos, 1, entG, relG)
	flops += f
	lossSum += l
	lossN++
	for _, neg := range negs {
		f, l = t.accumulateTriple(p, neg, -1, entG, relG)
		flops += f
		lossSum += l
		lossN++
	}
	return flops, lossSum, lossN
}

// accumulateTriple adds the loss gradient of one labeled triple into the
// sparse gradients and returns the flops spent plus the triple's loss value.
func (t *trainRun) accumulateTriple(p *model.Params, tr kg.Triple, y float32, entG, relG *grad.SparseGrad) (float64, float64) {
	score := t.m.Score(p, tr)
	coef := model.LogisticLossGrad(score, y)
	t.m.AccumulateScoreGrad(p, tr, coef, entG.Row(tr.H), relG.Row(tr.R), entG.Row(tr.T))
	return t.m.ScoreFlops() + t.m.GradFlops(), float64(model.LogisticLoss(score, y))
}

// applyGrads feeds aggregated rows to the optimizer with decoupled L2 decay
// and returns the flops spent.
func (t *trainRun) applyGrads(o opt.Optimizer, mat *tensor.Matrix, agg *grad.SparseGrad, lr float32) float64 {
	if agg.Len() == 0 {
		return 0
	}
	o.BeginStep()
	decay := 1 - 2*float32(t.cfg.L2)*lr
	clip := float32(t.cfg.ClipNorm)
	agg.ForEach(func(id int32, row []float32) {
		if clip > 0 {
			if n := tensor.Nrm2(row); n > clip {
				tensor.Scale(clip/n, row)
			}
		}
		pr := mat.Row(int(id))
		o.ApplyRow(id, pr, row, lr)
		if t.cfg.L2 > 0 {
			tensor.Scale(decay, pr)
		}
	})
	return float64(agg.Len()*t.width) * 12
}
