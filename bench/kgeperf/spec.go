package main

import "encoding/json"

// The benchmark's contract: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repository
// root mirrors these tables (TestBenchmarkJSONMatchesSpec keeps them equal),
// and bench/README.md explains every entry.

// metricSpec names one metric. Bound is the share of the parent's median by
// which the metric may worsen before a change counts as a regression; it is
// zero for per-layer metrics, which carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// values reads a result's own metrics by name; a name the run did not report
// reads as NaN, which contractMetrics refuses to print.
type values func(name string) float64

// endToEndSpec is one end-to-end metric of the contract and how it is
// derived, per kind of workload, from the metrics a run measures. The
// driver's contract has every workload report every end-to-end metric, so
// the contract's seven are phrased per operation (one training epoch, one
// predict request) and each is a fixed function of the quantity ISSUE 11
// names for that kind. A run stores and prints each quantity once, under the
// issue's name; the contract's names appear only in the last stdout line and
// in -compare / -selfcheck rows.
type endToEndSpec struct {
	metricSpec
	train derive
	serve derive
}

type derive func(v values) float64

var endToEnd = []endToEndSpec{
	{metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		func(v values) float64 { return v("setup_s") },
		func(v values) float64 { return v("setup_s") }},
	{metricSpec{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		func(v values) float64 { return 1e3 * v("train_wall_s") / v("epochs_per_job") },
		func(v values) float64 { return v("predict_p50_ms") }},
	{metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
		func(v values) float64 { return v("triples_per_s") },
		func(v values) float64 { return v("predict_qps_closed") }},
	{metricSpec{Name: "accuracy_pct", Unit: "%", Better: "higher", Bound: 0.05},
		func(v values) float64 { return v("test_tca_pct") },
		func(v values) float64 { return 100 * v("recall_at_10") }},
	{metricSpec{Name: "wire_kb_per_op", Unit: "kB", Better: "lower", Bound: 0.05},
		func(v values) float64 { return 1e3 * v("comm_mb") / v("epochs_per_job") },
		func(v values) float64 { return v("predict_body_kb") }},
	{metricSpec{Name: "slo_ok_share", Unit: "share", Better: "higher", Bound: 0.02},
		func(v values) float64 { return 1 - v("failed_share") },
		func(v values) float64 { return v("slo_ok_share") }},
	{metricSpec{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
		func(v values) float64 { return v("peak_rss_mb") },
		func(v values) float64 { return v("peak_rss_mb") }},
}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{Name: "train_dense", Why: "plain baseline: score, grad, SparseGrad, dense ring all-reduce and Adam do all the work; every compression layer does none"},
	{Name: "train_sparse", Why: "the paper's combination on the sparse path (all-gather + RS + 1-bit + RP + SS): select, quantize, encode, all-gather, decode busy; dense all-reduce idle"},
	{Name: "train_dyncomp", Why: "only home of the compression ladder controller, Merger and ReduceScatterEncoded; the ladder must leave fp32 inside the run"},
	{Name: "train_partitioned", Why: "sharded tables: row pull/push, shard store and the collective shard-gather checkpoint; owned-shard writes instead of replicas"},
	{Name: "train_dense_tcp", Why: "train_dense's config as 2 OS processes over loopback TCP: the first real wire time; must equal the in-process trajectory bit for bit"},
	{Name: "serve_exact", Why: "full 1-vs-N ScoreRows sweep, top-k, micro-batcher and JSON over HTTP with unique queries; the binarized index does no work"},
	{Name: "serve_approx", Why: "Hamming prefilter plus exact rescore (1024 candidates) at higher rates; the full sweep and the batcher are bypassed"},
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 15

// benchmarkJSON renders the contract file from the tables in this file.
func benchmarkJSON() ([]byte, error) {
	return json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}, "", "  ")
}

// perLayer lists the metrics every workload reports from its traced run.
// The probe metrics time one public function of one layer on fixed shapes
// (README "Per-layer metrics"); the run.* metrics are derived from the
// traced rerun of the workload itself and say where its time went.
var perLayer = []metricSpec{
	{Name: "kg.generate_s", Unit: "s", Better: "lower"},

	{Name: "model.score_ns_per_triple", Unit: "ns", Better: "lower"},
	{Name: "model.grad_ns_per_triple", Unit: "ns", Better: "lower"},
	{Name: "model.select_hardest_ns", Unit: "ns", Better: "lower"},
	{Name: "model.corrupt_ns_per_neg", Unit: "ns", Better: "lower"},
	{Name: "model.sweep_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "model.checkpoint_save_s", Unit: "s", Better: "lower"},
	{Name: "model.checkpoint_load_s", Unit: "s", Better: "lower"},

	{Name: "grad.sparse_accum_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "grad.select_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "grad.quantize_1bit_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "grad.quantize_2bit_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "grad.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "grad.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "grad.merge_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "grad.observe_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "grad.wire_bytes_per_row", Unit: "B", Better: "lower"},

	{Name: "mpi.allreduce_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.allgather_bytes_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.reduce_scatter_encoded_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.barrier_us", Unit: "us", Better: "lower"},

	{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "transport.wire_over_payload", Unit: "ratio", Better: "lower"},
	{Name: "transport.dial_s", Unit: "s", Better: "lower"},
	{Name: "transport.chan_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "opt.adam_ns_per_row", Unit: "ns", Better: "lower"},

	{Name: "eval.link_prediction_ms_per_triple", Unit: "ms", Better: "lower"},
	{Name: "eval.tca_s", Unit: "s", Better: "lower"},
	{Name: "eval.topk_ns_per_offer", Unit: "ns", Better: "lower"},

	{Name: "partition.build_s", Unit: "s", Better: "lower"},
	{Name: "partition.cut_ratio", Unit: "ratio", Better: "lower"},
	{Name: "partition.remote_row_fraction", Unit: "ratio", Better: "lower"},

	{Name: "serve.open_store_s", Unit: "s", Better: "lower"},
	{Name: "serve.reload_s", Unit: "s", Better: "lower"},
	{Name: "serve.handler_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batcher_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.cache_put_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.json_encode_us", Unit: "us", Better: "lower"},

	{Name: "binpack.build_s", Unit: "s", Better: "lower"},
	{Name: "binpack.hamming_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "binpack.search_us", Unit: "us", Better: "lower"},
	{Name: "binpack.index_mb", Unit: "MB", Better: "lower"},

	{Name: "core.model_time_s", Unit: "s", Better: "lower"},
	{Name: "core.test_mrr", Unit: "ratio", Better: "higher"},
	{Name: "core.ladder_top_rung", Unit: "rung", Better: "higher"},
	{Name: "simnet.model_over_wall", Unit: "ratio", Better: "higher"},

	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.max_rate_ok_qps", Unit: "1/s", Better: "higher"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.approx_rescored_per_query", Unit: "count", Better: "lower"},

	{Name: "run.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "run.harness_self_share", Unit: "share", Better: "lower"},
	{Name: "run.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "run.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "run.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "run.share_model", Unit: "share", Better: "lower"},
	{Name: "run.share_grad", Unit: "share", Better: "lower"},
	{Name: "run.share_mpi", Unit: "share", Better: "lower"},
	{Name: "run.share_opt", Unit: "share", Better: "lower"},
	{Name: "run.share_eval", Unit: "share", Better: "lower"},
	{Name: "run.share_partition", Unit: "share", Better: "lower"},
	{Name: "run.share_serve", Unit: "share", Better: "lower"},
	{Name: "run.share_binpack", Unit: "share", Better: "lower"},
	{Name: "run.share_transport", Unit: "share", Better: "lower"},
	{Name: "run.unattributed_share", Unit: "share", Better: "lower"},
}

// carried names the per-layer metrics that are neither probes nor run.*
// attributions but numbers the workload's own traced rerun measured: the
// result metric each copies, and the kind of workload that has it. A
// workload of the other kind reports 0 there (the quantity does not exist
// for it). These are the quantities ISSUE 11 tracks that the contract's
// kind-neutral end-to-end metrics do not carry.
var carried = map[string]struct{ from, kind string }{
	"core.model_time_s":               {"model_time_s", "train"},
	"core.test_mrr":                   {"test_mrr", "train"},
	"core.ladder_top_rung":            {"core.ladder_top_rung", "train"},
	"simnet.model_over_wall":          {"simnet.model_over_wall", "train"},
	"loadgen.late_p99_ms":             {"loadgen.late_p99_ms", "serve"},
	"loadgen.max_rate_ok_qps":         {"loadgen.max_rate_ok_qps", "serve"},
	"serve.batch_size_mean":           {"serve.batch_size_mean", "serve"},
	"serve.cache_hit_ratio":           {"serve.cache_hit_ratio", "serve"},
	"serve.approx_rescored_per_query": {"serve.approx_rescored_per_query", "serve"},
}

// layers are the modules a workload's operation time is attributed to, in
// the order the run.share_* metrics list them.
var layers = []string{"model", "grad", "mpi", "opt", "eval", "partition", "serve", "binpack", "transport"}
