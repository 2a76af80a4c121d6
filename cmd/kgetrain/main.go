// Command kgetrain trains a knowledge-graph embedding model with any
// combination of the paper's five strategies on a simulated cluster, or —
// with -peers/-rank — as one rank of a multi-process job over TCP.
//
// Examples:
//
//	kgetrain -dataset fb15k-mini -nodes 8 -comm allreduce
//	kgetrain -dataset fb250k-mini -nodes 16 -comm dynamic -rs -quant 1bit-max -rp -ss -negs 5
//	kgetrain -data ./mydataset -nodes 4    # OpenKE-layout directory
//
// Multi-process over TCP (run one command per rank; rank 0 coordinates):
//
//	kgetrain -peers host0:7000,host1:7000,host2:7000 -rank 0 -comm dynamic
//	kgetrain -peers host0:7000,host1:7000,host2:7000 -rank 1 -comm dynamic
//	kgetrain -peers host0:7000,host1:7000,host2:7000 -rank 2 -comm dynamic
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"kgedist/internal/core"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/partition"
	"kgedist/internal/ps"
	"kgedist/internal/simnet"
	"kgedist/internal/trace"
	"kgedist/internal/transport"
	"kgedist/internal/transport/tcptransport"
)

// buildTag is exchanged during the TCP rendezvous handshake; every rank of
// a multi-process job must present the same tag, which catches a stale
// binary joining a cluster of newer ones.
const buildTag = "kgetrain-1"

func main() {
	var (
		dataset   = flag.String("dataset", "fb15k-mini", "synthetic preset: fb15k-mini, fb250k-mini, fb15k-full, fb250k-full")
		dataDir   = flag.String("data", "", "load an OpenKE-layout dataset directory instead of a preset")
		namedDir  = flag.String("nameddata", "", "load a Freebase-text-layout directory (train.txt/valid.txt/test.txt of name triples, as FB15K is distributed)")
		nodes     = flag.Int("nodes", 1, "simulated cluster size")
		modelName = flag.String("model", "complex", "model: complex, distmult, transe")
		dim       = flag.Int("dim", 32, "embedding dimension")
		optName   = flag.String("opt", "adam", "optimizer: adam, sgd")
		batch     = flag.Int("batch", 2000, "per-worker batch size")
		lr        = flag.Float64("lr", 0.01, "base learning rate (scaled by min(4, nodes))")
		epochs    = flag.Int("epochs", 80, "maximum epochs")
		comm      = flag.String("comm", "allreduce", "gradient exchange: allreduce, allgather, dynamic, dyncomp")
		probe     = flag.Int("probe", 10, "dynamic probe period k")

		compressHold   = flag.Int("compress-hold", 0, "dyncomp: consecutive below-threshold epochs before each ladder step (0 = default)")
		compressWarmup = flag.Int("compress-warmup", 0, "dyncomp: initial epochs at fp32 before the ladder may step (0 = default)")
		rs             = flag.Bool("rs", false, "random selection of gradient vectors")
		quant          = flag.String("quant", "none", "quantization: none, 1bit-max, 1bit-avg, 2bit")
		ef             = flag.Bool("ef", false, "error-feedback residuals for quantization")
		rp             = flag.Bool("rp", false, "relation partition")
		ss             = flag.Bool("ss", false, "negative sample selection (train hardest of n)")
		negs           = flag.Int("negs", 1, "negative samples n per positive")
		strategy       = flag.String("strategy", "sgd", "training architecture: sgd (the paper's data-parallel trainer) or ps (parameter-server baseline)")
		servers        = flag.Int("servers", 1, "parameter-server count for -strategy ps")

		partitioned    = flag.Bool("partitioned", false, "sharded-table mode: entity+relation rows are partitioned across ranks, batches pull remote rows and push gradients back")
		partitionBy    = flag.String("partition-by", "", "row partitioner for -partitioned: mincut (default) or hash")
		partitionSlack = flag.Float64("partition-slack", 0, "per-rank row-count slack for -partitioned (0 = default 0.1)")
		seed           = flag.Uint64("seed", 1, "random seed")
		save           = flag.String("save", "", "write the trained model to this checkpoint file")
		traceOut       = flag.String("trace", "", "write a JSONL run trace to this file")

		faults    = flag.String("faults", "", "fault plan, e.g. 'crash:2@350,slow:0@100+50x4,delay:0@200+30x8' (kind:RANK@T[+DURxFACTOR], virtual seconds)")
		ckptEvery = flag.Int("checkpoint-every", 0, "snapshot the merged model every N epochs (recovery point; 0 = off)")
		ckptPath  = flag.String("checkpoint", "", "persist snapshots crash-safely to this file (needs -checkpoint-every)")
		recoverOn = flag.Bool("recover", false, "shrink-and-continue on rank failure instead of aborting")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")

		peers       = flag.String("peers", "", "multi-process mode: comma-separated rank addresses (rank 0 first: it leads the first rendezvous, the lowest surviving rank each later one); one kgetrain per rank")
		rank        = flag.Int("rank", -1, "this process's rank into -peers")
		listen      = flag.String("listen", "", "bind address override for this rank (default: its -peers entry)")
		metricsAddr = flag.String("metrics-addr", "", "serve transport health metrics in Prometheus format at this address (/metrics)")
	)
	flag.Parse()

	// Every contradictory flag combination is rejected here, before any
	// dataset or network setup: what only a command line can get wrong in
	// validateFlagCombos, the training-mode rules in core.Config.Validate.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := validateFlagCombos(explicit, *strategy, *peers); err != nil {
		fmt.Fprintln(os.Stderr, "kgetrain:", err)
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.ModelName = *modelName
	cfg.Dim = *dim
	cfg.OptimizerName = *optName
	cfg.BatchSize = *batch
	cfg.BaseLR = *lr
	cfg.MaxEpochs = *epochs
	cfg.ProbeEvery = *probe
	cfg.ErrorFeedback = *ef
	cfg.RelationPartition = *rp
	cfg.NegSelect = *ss
	cfg.NegSamples = *negs
	cfg.Seed = *seed
	switch *comm {
	case "allreduce":
		cfg.Comm = core.CommAllReduce
	case "allgather":
		cfg.Comm = core.CommAllGather
	case "dynamic":
		cfg.Comm = core.CommDynamic
	case "dyncomp":
		cfg.Comm = core.CommDynamicCompress
	default:
		fmt.Fprintf(os.Stderr, "unknown -comm %q\n", *comm)
		os.Exit(1)
	}
	if *rs {
		cfg.Select = grad.SelectBernoulli
	}
	switch *quant {
	case "none":
	case "1bit-max":
		cfg.Quant = grad.OneBitMax
	case "1bit-avg":
		cfg.Quant = grad.OneBitAvg
	case "2bit":
		cfg.Quant = grad.TwoBitTernary
	default:
		fmt.Fprintf(os.Stderr, "unknown -quant %q\n", *quant)
		os.Exit(1)
	}
	if *faults != "" {
		plan, err := simnet.ParseFaultPlan(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.FaultPlan = plan
	}
	cfg.CheckpointEvery = *ckptEvery
	cfg.CheckpointPath = *ckptPath
	cfg.Recover = *recoverOn
	// The tuning knobs are set whether or not their mode is: a knob without
	// its mode is core's to reject, like every other mode combination.
	cfg.CompressHold = *compressHold
	cfg.CompressWarmup = *compressWarmup
	cfg.Partitioned = *partitioned
	cfg.PartitionBy = *partitionBy
	cfg.PartitionSlack = *partitionSlack
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "kgetrain:", err)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC() // capture live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	d, err := kg.Load(*dataset, *dataDir, *namedDir, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("dataset %s: %d entities, %d relations, %d/%d/%d train/valid/test\n",
		d.Name, d.NumEntities, d.NumRelations, len(d.Train), len(d.Valid), len(d.Test))

	if *strategy == "ps" {
		if err := runPS(d, *modelName, *dim, *optName, *batch, *lr, *epochs, *negs, *seed, *nodes, *servers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var res *core.Result
	if *peers != "" {
		res, err = trainOverTCP(cfg, d, *peers, *rank, *listen, *metricsAddr)
	} else {
		fmt.Printf("training %s (%s) on %d node(s), strategy %s\n",
			cfg.ModelName, cfg.OptimizerName, *nodes, cfg.StrategyLabel())
		res, err = core.Train(cfg, d, *nodes)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nconverged after %d epochs\n", res.Epochs)
	fmt.Printf("total training time   %s virtual (%s/epoch avg)\n",
		virtualTime(3600*res.TotalHours), virtualTime(res.AvgEpochSeconds()))
	fmt.Printf("communication         %s virtual, %.1f MB moved (%.1f MB relation)\n",
		virtualTime(3600*res.CommHours), float64(res.CommBytes)/1e6, float64(res.RelationCommBytes)/1e6)
	if res.SwitchedAtEpoch > 0 {
		fmt.Printf("dynamic switch        all-gather from epoch %d\n", res.SwitchedAtEpoch)
	}
	if len(res.CompressionSteps) > 0 {
		var steps []string
		for _, s := range res.CompressionSteps {
			steps = append(steps, fmt.Sprintf("%s from epoch %d", s.Level, s.Epoch))
		}
		fmt.Printf("compression ladder    %s\n", strings.Join(steps, ", "))
	}
	if pstat := res.Partition; pstat != nil {
		fmt.Printf("partition (%s)    %d rank(s): cut %.1f%%, remote rows %.1f%%, peak shard %d entities, balance %.2f\n",
			pstat.Algo, pstat.Ranks, 100*pstat.CutRatio, 100*pstat.RemoteRowFraction,
			pstat.MaxEntityShard, pstat.EntityBalance)
	}
	if rc := res.Recovery; rc.FaultsInjected > 0 || rc.Checkpoints > 0 {
		fmt.Printf("fault tolerance       %d fault(s) injected, %d rank failure(s), %d recover(y/ies), %d epoch(s) replayed\n",
			rc.FaultsInjected, rc.RankFailures, rc.Recoveries, rc.EpochsLost)
		fmt.Printf("                      %d checkpoint(s), %.1f virtual s recovering, finished on %d node(s)%s\n",
			rc.Checkpoints, rc.RecoverySeconds, rc.FinalNodes,
			map[bool]string{true: " (degraded)", false: ""}[rc.Degraded])
	}
	fmt.Printf("test TCA              %.1f%%\n", res.TCA)
	fmt.Printf("test filtered MRR     %.3f (Hits@10 %.3f)\n", res.MRR, res.Hits10)
	if *save != "" {
		m := model.New(cfg.ModelName, cfg.Dim)
		if err := model.SaveCheckpoint(*save, m, res.FinalParams); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint saved to   %s\n", *save)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		meta := trace.Meta{Dataset: d.Name, Strategy: res.Strategy, Nodes: res.Nodes, Seed: *seed}
		if err := trace.WriteRun(f, meta, res); err != nil {
			_ = f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace written to      %s\n", *traceOut)
	}
}

// trainOverTCP runs this process's rank of a multi-process job: rendezvous
// with the peers over TCP, train through core.TrainProcess, and optionally
// expose transport health metrics over HTTP while the job runs.
func trainOverTCP(cfg core.Config, d *kg.Dataset, peerList string, rank int, listen, metricsAddr string) (*core.Result, error) {
	addrs := strings.Split(peerList, ",")
	for i, a := range addrs {
		addrs[i] = strings.TrimSpace(a)
		if addrs[i] == "" {
			return nil, fmt.Errorf("-peers entry %d is empty", i)
		}
	}
	if len(addrs) < 2 {
		return nil, fmt.Errorf("-peers needs at least 2 addresses, got %d", len(addrs))
	}
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("-rank %d out of range for %d peers", rank, len(addrs))
	}
	listenAddr := listen
	if listenAddr == "" {
		listenAddr = addrs[rank]
	}

	// For partitioned jobs the plan is a pure function of (dataset, world
	// size, config), so the scrape endpoint can expose its quality figures
	// up front, next to the live transport counters.
	var plan *partition.Plan
	if cfg.Partitioned && metricsAddr != "" {
		var perr error
		plan, perr = partition.Build(d, partition.Options{
			Ranks: len(addrs), Algo: cfg.PartitionBy, Seed: cfg.Seed, Slack: cfg.PartitionSlack,
		})
		if perr != nil {
			return nil, perr
		}
	}

	met := transport.NewMetrics()
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			met.WritePrometheus(w)
			if plan != nil {
				writePartitionMetrics(w, plan)
			}
		})
		go func() {
			if err := http.ListenAndServe(metricsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			}
		}()
		fmt.Printf("transport metrics at  http://%s/metrics\n", metricsAddr)
	}

	fmt.Printf("rank %d/%d rendezvous with coordinator %s (listening on %s)\n",
		rank, len(addrs), addrs[0], listenAddr)
	ep, err := tcptransport.Dial(tcptransport.Options{
		Rank:            rank,
		WorldSize:       len(addrs),
		CoordinatorAddr: addrs[0],
		ListenAddr:      listenAddr,
		BuildTag:        buildTag,
		Metrics:         met,
	})
	if err != nil {
		return nil, fmt.Errorf("rendezvous: %w", err)
	}
	fmt.Printf("training %s (%s) as rank %d of %d processes, strategy %s\n",
		cfg.ModelName, cfg.OptimizerName, rank, len(addrs), cfg.StrategyLabel())
	return core.TrainProcess(cfg, d, ep)
}

// validateFlagCombos rejects the contradictions only a command line can
// express — which process this is, which world it joins, which trainer runs —
// up front with one actionable error, instead of letting a bad invocation
// fail deep inside setup (or, worse, silently ignore a knob). `explicit`
// holds the flags the user actually set on the command line.
func validateFlagCombos(explicit map[string]bool, strategy, peers string) error {
	if strategy != "sgd" && strategy != "ps" {
		return fmt.Errorf("unknown -strategy %q (want sgd or ps)", strategy)
	}
	if peers == "" {
		for _, f := range []string{"rank", "listen", "metrics-addr"} {
			if explicit[f] {
				return fmt.Errorf("-%s configures one rank of a multi-process job; it needs -peers", f)
			}
		}
	} else {
		if explicit["nodes"] {
			return fmt.Errorf("-nodes conflicts with -peers: the world size is the peer count")
		}
		if explicit["faults"] {
			return fmt.Errorf("-faults drives the simulated cluster; over TCP (-peers) faults come from the real sockets")
		}
	}
	if strategy == "ps" {
		// The parameter-server baseline is a fixed architecture; every
		// distributed-SGD knob is meaningless there. Name all offenders at once.
		var bad []string
		for _, f := range []string{
			"partitioned", "partition-by", "partition-slack", "comm", "probe",
			"compress-hold", "compress-warmup",
			"rs", "quant", "ef", "rp", "ss",
			"peers", "rank", "listen", "metrics-addr",
			"faults", "checkpoint-every", "checkpoint", "recover", "save", "trace",
		} {
			if explicit[f] {
				bad = append(bad, "-"+f)
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("-strategy ps is the parameter-server baseline and does not take distributed-SGD knobs; drop %s", strings.Join(bad, ", "))
		}
	} else if explicit["servers"] {
		return fmt.Errorf("-servers sizes the parameter-server tier; it needs -strategy ps")
	}
	return nil
}

// runPS trains the parameter-server baseline and prints a summary shaped
// like the main trainer's, so the architectures compare side by side.
func runPS(d *kg.Dataset, modelName string, dim int, optName string, batch int, lr float64, epochs, negs int, seed uint64, workers, servers int) error {
	pcfg := ps.DefaultConfig()
	pcfg.ModelName = modelName
	pcfg.Dim = dim
	pcfg.OptimizerName = optName
	pcfg.BatchSize = batch
	pcfg.BaseLR = lr
	pcfg.MaxEpochs = epochs
	pcfg.NegSamples = negs
	pcfg.Seed = seed
	fmt.Printf("training %s (%s) on %d worker(s) + %d server(s), strategy ps\n",
		modelName, optName, workers, servers)
	res, err := ps.Train(pcfg, d, workers, servers)
	if err != nil {
		return err
	}
	fmt.Printf("\nfinished after %d epochs\n", res.Epochs)
	fmt.Printf("total training time   %s virtual\n", virtualTime(3600*res.TotalHours))
	fmt.Printf("communication         %s virtual, %.1f MB moved (%.1f MB pull, %.1f MB push)\n",
		virtualTime(3600*res.CommHours), float64(res.CommBytes)/1e6, float64(res.PullBytes)/1e6, float64(res.PushBytes)/1e6)
	fmt.Printf("test TCA              %.1f%%\n", res.TCA)
	fmt.Printf("test filtered MRR     %.3f\n", res.MRR)
	return nil
}

// writePartitionMetrics appends the partition plan's quality figures to a
// Prometheus scrape, next to the transport counters.
func writePartitionMetrics(w io.Writer, p *partition.Plan) {
	q := p.Quality()
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP kgedist_partition_%s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE kgedist_partition_%s gauge\n", name)
		fmt.Fprintf(w, "kgedist_partition_%s{algo=%q} %g\n", name, p.Algo, v)
	}
	gauge("ranks", "World size the row partition was built for.", float64(p.Ranks))
	gauge("cut_ratio", "Fraction of training triples touching more than one shard.", q.CutRatio)
	gauge("remote_row_fraction", "Fraction of per-triple row references owned by another rank.", q.RemoteRowFraction)
	gauge("entity_balance", "Largest entity shard relative to a perfectly even split.", q.EntityBalance)
	gauge("relation_balance", "Largest relation shard relative to a perfectly even split.", q.RelationBalance)
	gauge("triple_balance", "Largest per-rank triple load relative to a perfectly even split.", q.TripleBalance)
	gauge("max_entity_shard", "Entity rows held by the fullest rank.", float64(q.MaxEntityShard))
}

// virtualTime renders a virtual duration in seconds in the largest unit that
// keeps it at or above one (s, min or h), so a mini preset's second-scale
// run does not print as 0.000 hours.
func virtualTime(sec float64) string {
	switch {
	case sec < 60:
		return fmt.Sprintf("%.3g s", sec)
	case sec < 3600:
		return fmt.Sprintf("%.2f min", sec/60)
	}
	return fmt.Sprintf("%.3f h", sec/3600)
}
