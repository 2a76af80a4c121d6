package main

import (
	"strings"

	"kgedist/internal/core"
	"kgedist/internal/kg"
	"kgedist/internal/serve"
)

// shapes are the data-dependent sizes the probes observed on the training
// fixture's real batch; the bills scale per-row and per-value probe costs
// by them.
type shapes struct {
	width       float64
	entRows     float64 // rows in one rank's entity batch gradient
	relRows     float64
	entUnion    []float64 // [k-1]: distinct entity rows across the first k ranks' gradients
	relUnion    []float64
	keepFrac    float64 // share of entity rows that survive Bernoulli selection
	wire1PerRow float64 // 1-bit wire bytes per row
	wire2PerRow float64 // 2-bit wire bytes per row
	ckptFloats  float64 // floats in the checkpoint the save/load probes wrote
}

// A bill lists, per probe metric, how many of its units one operation of a
// workload consumes on the path that blocks the operation. Multiplied by the
// probe's unit cost it attributes operation time to the layer; whatever the
// bills do not cover (the epoch loop's own bookkeeping, the partitioned row
// exchange, HTTP and scheduling) is reported as run.unattributed_share, not
// hidden. The counts are a model of the code path, stated here so a reader
// can check them against internal/core and internal/serve.
type bill func(sh *shapes) map[string]float64

// trainBill is the bill of one epoch. Ranks compute concurrently and share
// the host's processors, so per-rank compute is scaled by ranks/min(ranks,
// nproc); the mpi probes already ran all ranks at once and take no scaling.
func trainBill(cfg core.Config, d *kg.Dataset, spec trainSpec, first *jobStats) bill {
	// Everything the bill needs from the dataset is a handful of sizes; the
	// closure must not keep the dataset itself alive.
	world := spec.ranks()
	ranks := float64(world)
	share := ranks / float64(min(world, workers()))
	epochs := float64(spec.epochs)
	shard := (len(d.Train) + world - 1) / world
	batches := float64((shard + cfg.BatchSize - 1) / cfg.BatchSize)
	pos := batches * float64(min(cfg.BatchSize, shard))
	negs := float64(cfg.NegSamples)
	valScores := 2 * float64(min(cfg.ValSample/world+1, len(d.Valid)/world))
	testTriples := float64(min(cfg.TestSample, len(d.Test)))
	tableRows := float64(d.NumEntities + d.NumRelations)
	relScale := float64(d.NumRelations) / float64(d.NumEntities)
	firstStep := first.FirstStepEpoch

	return func(sh *shapes) map[string]float64 {
		b := map[string]float64{}

		trained := 1 + negs
		if cfg.NegSelect {
			b["model.select_hardest_ns"] = pos * share
			trained = 2
		} else {
			b["model.corrupt_ns_per_neg"] = pos * negs * share
		}
		b["model.grad_ns_per_triple"] = pos * trained * share
		b["grad.sparse_accum_ns_per_row"] = pos * trained * 3 * share
		// Per-epoch validation scores a positive and a corruption per sample.
		b["model.score_ns_per_triple"] = valScores * share

		entUnion, relUnion := sh.entUnion[world-1], sh.relUnion[world-1]
		applied := entUnion + relUnion
		switch {
		case cfg.Partitioned:
			// Owners apply the rows pushed to them: about a 1/ranks share of
			// the union each. The pull/push exchange itself has no public
			// probe and stays unattributed.
			applied /= ranks
			b["partition.build_s"] = 1 / epochs
			saves := float64(spec.epochs / max(cfg.CheckpointEvery, 1))
			b["model.checkpoint_save_s"] = saves * tableRows * sh.width / sh.ckptFloats / epochs
		case cfg.Comm == core.CommAllGather:
			kept := sh.entRows * sh.keepFrac
			b["grad.select_ns_per_row"] = batches * sh.entRows * share
			b["grad.quantize_1bit_ns_per_value"] = batches * kept * sh.width * share
			b["grad.encode_mb_per_s"] = batches * kept * sh.wire1PerRow / 1e6 * share
			b["mpi.allgather_bytes_ms"] = batches
			b["grad.decode_mb_per_s"] = batches * ranks * kept * sh.wire1PerRow / 1e6 * share
			applied = entUnion*sh.keepFrac + sh.relRows // relation rows stay rank-local under RP
		case cfg.Comm == core.CommDynamicCompress:
			lossy := 0.0
			if firstStep > 0 && firstStep <= spec.epochs {
				lossy = float64(spec.epochs-firstStep+1) / epochs
			}
			rows := sh.entRows + sh.relRows
			b["grad.observe_ns_per_value"] = batches * sh.entRows * sh.width * share
			b["grad.quantize_2bit_ns_per_value"] = batches * rows * sh.width * lossy * share
			b["mpi.reduce_scatter_encoded_ms"] = batches * (1 + relScale)
			b["mpi.allgather_bytes_ms"] = batches * 2
			b["grad.decode_mb_per_s"] = batches * applied * sh.wire2PerRow / 1e6 * share
		default:
			b["mpi.allreduce_ms"] = batches * (1 + relScale)
			if spec.tcp {
				// A ring all-reduce moves 2(P-1)/P of the matrix through each
				// rank's socket in 2(P-1) one-way steps, i.e. P-1 round trips,
				// once for each of the two matrices.
				denseMB := tableRows * sh.width * 4 / 1e6
				b["transport.tcp_mb_per_s"] = batches * denseMB * 2 * (ranks - 1) / ranks
				b["transport.tcp_rtt_us"] = batches * 2 * (ranks - 1)
			}
		}
		b["opt.adam_ns_per_row"] = batches * applied * share

		// Once per job: the final evaluation. Rank processes all evaluate at
		// once; goroutine ranks leave it to one.
		evalShare := 1.0
		if spec.tcp {
			evalShare = share
		}
		b["eval.link_prediction_ms_per_triple"] = testTriples / epochs * evalShare
		b["eval.tca_s"] = 1 / epochs * evalShare
		b["mpi.barrier_us"] = 4 // the epoch loop's start and end barrier pairs
		return b
	}
}

// serveBill is the bill of one predict request at a rate where requests
// rarely share a batch.
func serveBill(fx *serveFixture, spec serveSpec) bill {
	rows := fx.p.Entity.Rows // the closure keeps this count, not the table
	return func(*shapes) map[string]float64 {
		b := map[string]float64{
			"serve.cache_get_ns":   1,
			"serve.cache_put_ns":   1,
			"serve.json_encode_us": 1,
		}
		if spec.approx {
			b["binpack.search_us"] = 1 // prefilter, rescore and both top-k passes
			return b
		}
		// The exact sweep fans the entity shards out over the processors.
		shards := (rows + serve.DefaultShardRows - 1) / serve.DefaultShardRows
		par := float64(max(1, min(shards, workers())))
		b["model.sweep_ns_per_row"] = float64(rows) / par
		b["eval.topk_ns_per_offer"] = float64(rows) / par
		b["serve.batcher_wait_us"] = 1
		return b
	}
}

// attribute derives the run.* per-layer metrics from the traced run, the
// untraced run beside it, and the probes.
func attribute(traced, plain *outcome, probes map[string]probe, sh *shapes) map[string]metric {
	out := map[string]metric{}
	out["run.op_p50_ms"] = metric{Value: traced.opSeconds * 1e3, Unit: "ms"}
	overhead := 0.0
	if plain.opSeconds > 0 {
		overhead = (traced.opSeconds - plain.opSeconds) / plain.opSeconds
	}
	out["run.trace_overhead_share"] = metric{Value: overhead, Unit: "share"}
	out["run.alloc_mb_per_op"] = metric{Value: traced.allocMBPerOp, Unit: "MB"}
	out["run.gc_cycles"] = metric{Value: float64(traced.gcCycles), Unit: "count"}

	perLayerSec := map[string]float64{}
	if traced.bill != nil {
		for name, units := range traced.bill(sh) {
			layer, _, _ := strings.Cut(name, ".")
			perLayerSec[layer] += units * probes[name].secPerUnit
		}
	}
	rest := 1.0
	for _, layer := range layers {
		share := 0.0
		if traced.opSeconds > 0 {
			share = perLayerSec[layer] / traced.opSeconds
		}
		rest -= share
		out["run.share_"+layer] = metric{Value: share, Unit: "share"}
	}
	out["run.unattributed_share"] = metric{Value: rest, Unit: "share"}
	return out
}
