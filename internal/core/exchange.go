package core

import (
	"fmt"

	"kgedist/internal/grad"
	"kgedist/internal/mpi"
	"kgedist/internal/tensor"
	"kgedist/internal/xrand"
)

// Tags used for per-matrix communication accounting. RelationCommBytes in
// Result comes straight from these counters, making the §4.4 claim (zero
// relation communication under RP) directly measurable. The checkpoint and
// recovery tags account the fault-tolerance overhead separately so it never
// pollutes the gradient-exchange figures.
const (
	tagEntity     = "entity"
	tagRelation   = "relation"
	tagProbe      = "probe"
	tagCheckpoint = "checkpoint"
	tagRecovery   = "recovery"
	// Partitioned-mode row exchange: remote-row requests and replies ride
	// "pull", gradient rows returning to their owners ride "push".
	tagPull = "pull"
	tagPush = "push"
	// Adaptive-compression control plane: the tiny per-epoch all-reduce of
	// controller statistics (DESIGN.md §13) is accounted separately so it
	// never pollutes the gradient-exchange figures.
	tagCtrl = "ctrl"
)

// exchanger performs one rank's gradient exchanges, owning the scratch
// buffers, quantization RNG and error-feedback residuals. Every exchange can
// fail with *mpi.RankFailedError when a peer dies mid-collective; the caller
// propagates the error out of the worker so the recovery loop can shrink the
// world and resume.
//
// All scratch (dense staging, codec state, aggregate accumulators, the
// compressed all-reduce's mergers) is reused across batches, so the
// steady-state exchange allocates only the all-gather paths' wire payloads —
// which must stay fresh because the all-gather ring shares them across ranks
// (see mpi.AllGatherRows). The dyncomp path allocates no payload: its frames
// ride pooled single-receiver buffers (mpi.AllReduceEncoded). The aggregates
// returned by exchange alias exchanger-owned storage and are valid only
// until the next exchange call (probes leave them untouched); the trainer
// applies them before exchanging again.
type exchanger struct {
	cfg    *Config
	comm   *mpi.Comm
	width  int
	numEnt int
	numRel int
	entBuf []float32 // dense all-reduce scratch, numEnt*width
	relBuf []float32 // dense all-reduce scratch, numRel*width
	qRng   *xrand.RNG
	entRes *grad.Residual
	relRes *grad.Residual
	enc    grad.Encoded     // quantization encode scratch
	dec    grad.Encoded     // payload decode scratch
	entAgg *grad.SparseGrad // aggregate accumulator, reused per batch
	relAgg *grad.SparseGrad

	// Adaptive-compression state (CommDynamicCompress only; DESIGN.md §13).
	// The controller accumulates per-batch gradient statistics and walks the
	// ladder at epoch boundaries; the mergers own the compressed all-reduce
	// scratch of the two matrices; sRng and mRng are dedicated streams for
	// the RS rung's selection and the owner merges' ternary re-encoding,
	// split off the exchanger rng so the rungs below them leave existing
	// streams untouched.
	ctrl       *grad.Controller
	entMg      grad.Merger
	relMg      grad.Merger
	sRng       *xrand.RNG
	mRng       *xrand.RNG
	statsBuf   [grad.CtrlStatsLen]float32
	selBefore  int // ladder-RS selection tallies for EpochStats.Sparsity,
	selDropped int // accumulated per batch, drained at the epoch boundary
}

func newExchanger(cfg *Config, comm *mpi.Comm, width, numEnt, numRel int, rng *xrand.RNG) *exchanger {
	x := &exchanger{
		cfg:    cfg,
		comm:   comm,
		width:  width,
		numEnt: numEnt,
		numRel: numRel,
		qRng:   rng,
	}
	if cfg.ErrorFeedback {
		x.entRes = grad.NewResidual(width)
		x.relRes = grad.NewResidual(width)
	}
	if cfg.Comm == CommDynamicCompress {
		// Error feedback is integral to the ladder's lossy rungs
		// (DESIGN.md §13); the controller and residuals restart fresh each
		// attempt, so after a shrink-recovery the ladder re-ascends from
		// fp32 deterministically.
		x.ctrl = grad.NewController(cfg.CompressHold, cfg.CompressWarmup)
		x.entRes = grad.NewResidual(width)
		x.relRes = grad.NewResidual(width)
		x.sRng = rng.Split(11)
		x.mRng = rng.Split(12)
	}
	x.entAgg = grad.NewSparseGrad(width)
	x.relAgg = grad.NewSparseGrad(width)
	return x
}

// scaleRows divides every row by the world size, matching Horovod's
// gradient averaging.
func scaleRows(g *grad.SparseGrad, p int) {
	if p <= 1 {
		return
	}
	inv := 1 / float32(p)
	g.ForEach(func(_ int32, row []float32) { tensor.Scale(inv, row) })
}

// allReduce densifies the sparse gradient, ring-all-reduces it, and returns
// the averaged aggregate (in agg, which is cleared first). Full precision by
// construction: summing quantized payloads element-wise is not defined,
// which is why the paper's quantized exchanges ride the all-gather path.
func (x *exchanger) allReduce(g, agg *grad.SparseGrad, rows int, buf *[]float32, tag string) (*grad.SparseGrad, float64, error) {
	if *buf == nil {
		*buf = make([]float32, rows*x.width)
	}
	g.ScatterDense(*buf)
	cost, err := x.comm.AllReduceSum(*buf, tag)
	if err != nil {
		return nil, 0, err
	}
	agg.Clear()
	agg.AccumulateDense(*buf)
	scaleRows(agg, x.comm.Size())
	return agg, cost, nil
}

// allGather exchanges only non-zero rows, accumulating all ranks'
// contributions into agg (cleared first). With quantization enabled the
// rows are encoded to the configured scheme (1 or 2 bits per value plus one
// scale per row) before hitting the wire. Encode and decode go through the
// exchanger's Encoded scratch; only the marshaled wire payload is freshly
// allocated, as the all-gather contract requires.
func (x *exchanger) allGather(g, agg *grad.SparseGrad, res *grad.Residual, rows int, tag string) (*grad.SparseGrad, float64, error) {
	agg.Clear()
	var cost float64
	if x.cfg.Quant == grad.NoQuant {
		idx, flat := g.Flatten()
		allIdx, allVals, c, err := x.comm.AllGatherRows(idx, flat, tag)
		if err != nil {
			return nil, 0, err
		}
		cost = c
		for src := range allIdx {
			agg.AddFlat(allIdx[src], allVals[src])
		}
	} else {
		if res != nil {
			res.AddInto(g)
			res.QuantizeInto(&x.enc, g, x.cfg.Quant, x.qRng)
		} else {
			grad.QuantizeInto(&x.enc, g, x.cfg.Quant, x.qRng)
		}
		payloads, c, err := x.comm.AllGatherBytes(x.enc.Marshal(), tag)
		if err != nil {
			return nil, 0, err
		}
		cost = c
		if err := x.decodeAll(payloads, agg, x.cfg.Quant, rows); err != nil {
			return nil, 0, err
		}
	}
	scaleRows(agg, x.comm.Size())
	return agg, cost, nil
}

// compressed runs one matrix through the adaptive pipeline at the ladder's
// current rung (DESIGN.md §13): error-feedback residual in, RS selection
// (top rung only, dropped rows banked whole), quantization to the rung's
// scheme with the new residual written in the same pass, the compressed
// all-reduce — owner merge, then the echo-free return of the reduced
// chunks, still encoded — and a local decode of the chunks into agg in
// source-rank order that applies the 1/P average as it goes (the chunks
// cover disjoint id ranges). At fp32 the same pipeline runs with NoQuant
// frames and no residual: the reduction is exact, only the framing differs
// from the dense baseline.
func (x *exchanger) compressed(g, agg *grad.SparseGrad, res *grad.Residual, mg *grad.Merger, rows int, tag string) (*grad.SparseGrad, float64, error) {
	lvl := x.ctrl.Level()
	if lvl.Lossy() {
		res.AddInto(g)
		if lvl.Sparsify() {
			st := grad.SelectEF(g, grad.SelectBernoulli, x.sRng, res)
			x.selBefore += st.Before
			x.selDropped += st.Dropped
		}
		res.QuantizeInto(&x.enc, g, lvl.Scheme(), x.qRng)
	} else {
		grad.QuantizeInto(&x.enc, g, lvl.Scheme(), x.qRng)
	}
	chunks, cost, err := x.comm.AllReduceEncoded(&x.enc, rows, mg, x.mRng, tag)
	if err != nil {
		return nil, 0, err
	}
	agg.Clear()
	for _, f := range chunks {
		grad.DequantizeMean(f, agg, x.comm.Size())
	}
	return agg, cost, nil
}

// decodeAll dequantizes every rank's gathered frame into agg. The frames are
// peer bytes, so each is checked before use against what this rank expects:
// scheme s, the exchanged width, and row ids in [0, rows). A bad frame is an
// error naming its sender, never a panic.
func (x *exchanger) decodeAll(payloads [][]byte, agg *grad.SparseGrad, s grad.Scheme, rows int) error {
	for src, p := range payloads {
		err := grad.UnmarshalInto(&x.dec, p)
		if err == nil {
			err = x.dec.Check(s, x.width, 0, int32(rows))
		}
		if err != nil {
			return peerFrameError(src, err)
		}
		grad.Dequantize(&x.dec, agg)
	}
	return nil
}

// peerFrameError reports a gathered frame from rank src that failed to
// decode or does not fit what this rank expects.
func peerFrameError(src int, err error) error {
	return fmt.Errorf("core: corrupt quantized payload from rank %d: %w", src, err)
}

// observe feeds one batch's entity gradient into the adaptive controller
// (no-op outside CommDynamicCompress) and returns the virtual flops the
// statistics pass costs. The entity matrix alone drives the signal: it
// dominates both the row count and the communicated volume, and one matrix
// keeps the decision rule single-sourced (DESIGN.md §13).
func (x *exchanger) observe(entG *grad.SparseGrad) float64 {
	if x.ctrl == nil {
		return 0
	}
	x.ctrl.Observe(entG)
	return grad.ObserveFlops(entG)
}

// advanceCompression closes the controller's epoch: the per-rank statistics
// are summed with a tiny dense all-reduce (tagCtrl) and every rank applies
// the identical decision rule to the identical totals, so the ladder
// trajectory is globally agreed without a coordinator (DESIGN.md §13). The
// drained selection tallies feed EpochStats.Sparsity.
func (x *exchanger) advanceCompression() (probe grad.EpochProbe, selBefore, selDropped int, err error) {
	x.ctrl.StatsInto(x.statsBuf[:])
	if _, err := x.comm.AllReduceSum(x.statsBuf[:], tagCtrl); err != nil {
		return grad.EpochProbe{}, 0, 0, err
	}
	selBefore, selDropped = x.selBefore, x.selDropped
	x.selBefore, x.selDropped = 0, 0
	return x.ctrl.AdvanceFrom(x.statsBuf[:]), selBefore, selDropped, nil
}

// exchange aggregates the entity and relation gradients under the given
// mode ("allreduce", "allgather" or "dyncomp"). Under relation partition the
// relation gradient is returned as-is: rank-local, full precision, zero
// cost. The returned aggregates alias exchanger-owned scratch (or relG
// itself) and are valid only until the next exchange call.
func (x *exchanger) exchange(entG, relG *grad.SparseGrad, mode string) (entAgg, relAgg *grad.SparseGrad, cost float64, err error) {
	entAgg, cost, err = x.exchangeOne(mode, entG, x.entAgg, x.entRes, &x.entMg, x.numEnt, &x.entBuf, tagEntity)
	if err != nil {
		return nil, nil, 0, err
	}
	if x.cfg.RelationPartition {
		return entAgg, relG, cost, nil // rank-private, never communicated (§4.4)
	}
	relAgg, relCost, err := x.exchangeOne(mode, relG, x.relAgg, x.relRes, &x.relMg, x.numRel, &x.relBuf, tagRelation)
	if err != nil {
		return nil, nil, 0, err
	}
	return entAgg, relAgg, cost + relCost, nil
}

// exchangeOne runs one matrix through the mode's collective.
func (x *exchanger) exchangeOne(mode string, g, agg *grad.SparseGrad, res *grad.Residual, mg *grad.Merger, rows int, buf *[]float32, tag string) (*grad.SparseGrad, float64, error) {
	switch mode {
	case "allreduce":
		return x.allReduce(g, agg, rows, buf, tag)
	case "allgather":
		return x.allGather(g, agg, res, rows, tag)
	case "dyncomp":
		return x.compressed(g, agg, res, mg, rows, tag)
	}
	panic("core: unknown exchange mode " + mode)
}

// probeAllGather performs a throwaway all-gather of the same payloads to
// measure its cost for the dynamic strategy's §4.1 probe. The results are
// discarded; error-feedback residuals are left untouched.
func (x *exchanger) probeAllGather(entG, relG *grad.SparseGrad) (float64, error) {
	probe := func(g *grad.SparseGrad) (float64, error) {
		if x.cfg.Quant == grad.NoQuant {
			idx, flat := g.Flatten()
			_, _, c, err := x.comm.AllGatherRows(idx, flat, tagProbe)
			return c, err
		}
		grad.QuantizeInto(&x.enc, g, x.cfg.Quant, x.qRng)
		_, c, err := x.comm.AllGatherBytes(x.enc.Marshal(), tagProbe)
		return c, err
	}
	cost, err := probe(entG)
	if err != nil {
		return 0, err
	}
	if !x.cfg.RelationPartition {
		relCost, err := probe(relG)
		if err != nil {
			return 0, err
		}
		cost += relCost
	}
	return cost, nil
}
