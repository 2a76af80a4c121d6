package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"kgedist/internal/core"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/partition"
)

// trainRanks is the world size of the in-process training workloads: three
// goroutine ranks, so the ring collectives take more than one hop and the
// compressed-domain merge runs more than once per exchange.
//
// tcpRanks is the world size of train_dense_tcp: two, because a third rank
// process would be one more than the reference box has processors (the
// harness never starts more workers, connections or processes than nproc),
// and because ISSUE 11 allowed two "if train_wall_s does not repeat within
// 10 % over five runs": three GOMAXPROCS=1 processes read 8.32, 8.85, 9.75,
// 10.56, 9.66 s in five back-to-back runs, the kernel deciding which rank
// waits. Two read 7.96, 8.39, 8.65, 7.79, 7.19 s — loopback TCP between
// processes is simply noisier than channels between goroutines (the
// in-process reference beside them read 3.41–3.57 s).
const (
	trainRanks = 3
	tcpRanks   = 2
)

// A job must have learned something, or the timings describe a program that
// computes nothing useful: the final filtered MRR must be at least
// learnedMRRFactor times what a random ranking of the entities scores, and
// the final triple-classification accuracy at least learnedTCA percent
// (chance is 50). Over seeds 1-20 the lowest MRR any workload reached was
// 3.5 times the floor and the lowest accuracy 73.7 %; a change that zeroes
// or garbles the gradients on any exchange path leaves both at chance.
const (
	learnedMRRFactor = 10
	learnedTCA       = 65.0
)

// sparseNegs is train_sparse's candidate count for negative sample selection.
const sparseNegs = 2

// randomMRR is the expected reciprocal rank of the true entity when the n
// candidates are ranked uniformly at random: H(n)/n.
func randomMRR(n int) float64 {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h / float64(n)
}

// trainSpec is one training workload: a core.Config built on the shared
// defaults, a frozen epoch count per job, and the invariants its result
// must satisfy. A job is one whole core.Train / core.TrainProcess call —
// a fixed epoch count (StopPatience = MaxEpochs) plus the final
// evaluation; a run repeats the job until --seconds have passed and
// reports medians over the jobs.
type trainSpec struct {
	name   string
	epochs int  // per job; frozen, so train_wall_s compares across commits
	tcp    bool // ranks are re-exec'd OS processes over loopback TCP
	mutate func(c *core.Config, workdir string)
	verify func(c core.Config, d *kg.Dataset, j *jobStats) []check
}

// Epoch counts (and train_dyncomp's learning rate) were tuned once so that
// every workload clears the learned floor on a job of 4–12 s on the 2-core
// reference box; they are frozen so wall time compares across commits.
var trainSpecs = []trainSpec{
	{name: "train_dense", epochs: 4,
		mutate: func(c *core.Config, _ string) { c.Comm = core.CommAllReduce }},
	// ISSUE 11 asked for 10 negatives. Hardest-of-10 selection pins the loss
	// at ln 2 (the embeddings sit at the origin's saddle) for 8 to 12 epochs
	// depending on the seed, at any learning rate from 0.0025 to 0.04 and
	// with selection and quantization off: at ten epochs seed 5 had not taken
	// off, and a job long enough for every seed would be 20 s. Hardest-of-2
	// takes off at epoch 3 on every seed tried and costs 8 % less per epoch,
	// so the select/quantize/encode/all-gather/decode path this workload
	// exists for is as busy as before.
	{name: "train_sparse", epochs: 6,
		mutate: func(c *core.Config, _ string) {
			c.Comm = core.CommAllGather
			c.Select = grad.SelectBernoulli
			c.Quant = grad.OneBitMax
			c.RelationPartition = true
			c.NegSamples = sparseNegs
			c.NegSelect = true
		},
		verify: func(_ core.Config, _ *kg.Dataset, j *jobStats) []check {
			return []check{{Name: "relation_comm_bytes_zero", OK: j.RelCommBytes == 0,
				Detail: fmt.Sprintf("RelationCommBytes=%d", j.RelCommBytes)}}
		}},
	// At the default learning rate the gradient entropy is above the 2-bit
	// threshold by epoch 2 and the ladder never moves; at 0.003 it steps at
	// epoch 3 and the job still learns in five.
	{name: "train_dyncomp", epochs: 5,
		mutate: func(c *core.Config, _ string) {
			c.Comm = core.CommDynamicCompress
			c.BaseLR = 0.003
			c.CompressHold = 1
			c.CompressWarmup = 1
		},
		verify: func(_ core.Config, _ *kg.Dataset, j *jobStats) []check {
			return []check{{Name: "ladder_left_fp32", OK: j.LadderSteps > 0,
				Detail: fmt.Sprintf("steps=%d top=%s", j.LadderSteps, j.TopRung)}}
		}},
	{name: "train_partitioned", epochs: 6,
		mutate: func(c *core.Config, workdir string) {
			c.Partitioned = true
			c.PartitionBy = "mincut"
			c.CheckpointEvery = 2
			c.CheckpointPath = filepath.Join(workdir, "partitioned.kge")
		},
		verify: func(c core.Config, d *kg.Dataset, j *jobStats) []check {
			bound := partition.BalanceBound(d.NumEntities, trainRanks, c.PartitionSlack)
			return []check{{Name: "max_entity_shard_within_bound", OK: j.MaxEntityShard > 0 && j.MaxEntityShard <= bound,
				Detail: fmt.Sprintf("MaxEntityShard=%d bound=%d", j.MaxEntityShard, bound)}}
		}},
	{name: "train_dense_tcp", epochs: 4, tcp: true,
		mutate: func(c *core.Config, _ string) { c.Comm = core.CommAllReduce }},
}

// ranks is the workload's world size.
func (s trainSpec) ranks() int {
	if s.tcp {
		return tcpRanks
	}
	return trainRanks
}

func findTrainSpec(name string) (trainSpec, bool) {
	for _, s := range trainSpecs {
		if s.name == name {
			return s, true
		}
	}
	return trainSpec{}, false
}

// trainDataset is the dataset config every training workload shares:
// fb250k-mini from the run seed (12 000 entities, 1 200 relations, 240 000
// triples), or a few hundred entities in smoke mode.
func trainDataset(seed uint64, smoke bool) kg.GenConfig {
	if smoke {
		return kg.FB15KMini(seed).Scaled(0.1)
	}
	return kg.FB250KMini(seed)
}

// trainConfig builds the workload's core.Config: ComplEx dim 32, Adam,
// batch 2000, core.DefaultConfig otherwise, with early stopping disabled so
// the epoch count is exactly spec.epochs.
func trainConfig(spec trainSpec, seed uint64, smoke bool, workdir string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	if smoke {
		cfg.BatchSize = 200
		cfg.Dim = 8
		cfg.TestSample = 20
		cfg.ValSample = 100
	}
	spec.mutate(&cfg, workdir)
	cfg.MaxEpochs = spec.epochs
	cfg.StopPatience = spec.epochs
	return cfg
}

// jobStats is what one job reports: its timings and the deterministic
// outputs the correctness checks compare. It is also the JSON a re-exec'd
// rank process prints, so the field names are part of that wire format.
type jobStats struct {
	Rank           int     `json:"rank"`
	WallS          float64 `json:"wall_s"`
	SetupS         float64 `json:"setup_s"`
	GenerateS      float64 `json:"generate_s"`
	DialS          float64 `json:"dial_s"`
	Epochs         int     `json:"epochs"`
	MRR            float64 `json:"mrr"`
	TCA            float64 `json:"tca"`
	Loss           float64 `json:"loss"`
	FirstLoss      float64 `json:"first_loss"`
	ModelS         float64 `json:"model_s"`
	CommBytes      int64   `json:"comm_bytes"`
	RelCommBytes   int64   `json:"rel_comm_bytes"`
	LadderSteps    int     `json:"ladder_steps"`
	FirstStepEpoch int     `json:"first_step_epoch"`
	TopRung        string  `json:"top_rung"`
	MaxEntityShard int     `json:"max_entity_shard"`
	RSSMB          float64 `json:"rss_mb"`
	AllocMB        float64 `json:"alloc_mb"`
	GCCycles       int64   `json:"gc_cycles"`
}

func (j *jobStats) fill(res *core.Result) {
	j.Epochs = res.Epochs
	j.MRR = res.MRR
	j.TCA = res.TCA
	j.ModelS = res.TotalHours * 3600
	j.CommBytes = res.CommBytes
	j.RelCommBytes = res.RelationCommBytes
	j.LadderSteps = len(res.CompressionSteps)
	j.TopRung = "fp32"
	if n := len(res.CompressionSteps); n > 0 {
		j.TopRung = res.CompressionSteps[n-1].Level
		j.FirstStepEpoch = res.CompressionSteps[0].Epoch
	}
	if n := len(res.PerEpoch); n > 0 {
		j.FirstLoss = res.PerEpoch[0].TrainLoss
		j.Loss = res.PerEpoch[n-1].TrainLoss
	}
	if res.Partition != nil {
		j.MaxEntityShard = res.Partition.MaxEntityShard
	}
}

// sameOutputs reports whether two jobs of one seed produced bit-equal
// deterministic outputs.
func sameOutputs(a, b *jobStats) bool {
	return a.Epochs == b.Epochs &&
		math.Float64bits(a.MRR) == math.Float64bits(b.MRR) &&
		math.Float64bits(a.TCA) == math.Float64bits(b.TCA) &&
		math.Float64bits(a.Loss) == math.Float64bits(b.Loss) &&
		math.Float64bits(a.ModelS) == math.Float64bits(b.ModelS) &&
		a.CommBytes == b.CommBytes
}

func (j *jobStats) outputs() string {
	return fmt.Sprintf("epochs=%d mrr=%v tca=%v loss=%v model_s=%v comm_bytes=%d", j.Epochs, j.MRR, j.TCA, j.Loss, j.ModelS, j.CommBytes)
}

// memDelta measures allocation volume and GC cycles across a call.
type memDelta struct{ before runtime.MemStats }

func startMemDelta() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop() (allocMB float64, gcCycles int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-m.before.TotalAlloc) / 1e6, int64(after.NumGC - m.before.NumGC)
}

// trainInProcess runs one job with every rank a goroutine.
func trainInProcess(cfg core.Config, d *kg.Dataset, ranks int) (*jobStats, error) {
	j := &jobStats{}
	mem := startMemDelta()
	t0 := time.Now()
	res, err := core.Train(cfg, d, ranks)
	j.WallS = time.Since(t0).Seconds()
	j.AllocMB, j.GCCycles = mem.stop()
	if err != nil {
		return j, err
	}
	j.fill(res)
	return j, nil
}

// runTrain executes a training workload: set up the dataset (timed,
// several times), then repeat the job until env.seconds have passed.
func runTrain(env *runEnv, spec trainSpec) (*outcome, error) {
	out := newOutcome()
	root := env.tr.begin("workload:"+spec.name, -1, 0)
	defer env.tr.end(root)

	// Set-up: the dataset is the workload's input, generated from the seed.
	gen := trainDataset(env.seed, env.smoke)
	var d *kg.Dataset
	var genS []float64
	for i := 0; i < env.setupReps(); i++ {
		runtime.GC() // each repeat starts from the same heap state
		sp := env.tr.begin("kg.Generate", root, 0)
		t0 := time.Now()
		d = kg.Generate(gen)
		genS = append(genS, time.Since(t0).Seconds())
		env.tr.end(sp)
	}
	cfg := trainConfig(spec, env.seed, env.smoke, env.workdir)
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	// A multi-process workload's set-up is spawn + generate + rendezvous in
	// the rank processes; repeat just that, without training, for a median.
	var spawnS []float64
	if spec.tcp {
		for i := 1; i < env.setupReps(); i++ {
			sp := env.tr.begin("spawn+rendezvous", root, 0)
			j, err := trainOverTCP(env, spec, true)
			env.tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
			}
			spawnS = append(spawnS, j.SetupS)
		}
	}

	var jobs []*jobStats
	start := time.Now()
	lastWall := 0.0
	name := "core.Train"
	if spec.tcp {
		name = fmt.Sprintf("core.TrainProcess x%d (re-exec)", tcpRanks)
	}
	for rep := 0; rep == 0 || time.Since(start).Seconds()+lastWall <= 0.9*env.seconds; rep++ {
		// Start every job from a collected heap, outside the timed region,
		// so peak memory and GC pacing belong to one job, not to how many
		// jobs happened to precede it.
		runtime.GC()
		sp := env.tr.begin(name, root, 0)
		var j *jobStats
		var err error
		if spec.tcp {
			j, err = trainOverTCP(env, spec, false)
		} else {
			j, err = trainInProcess(cfg, d, trainRanks)
		}
		env.tr.end(sp)
		out.attempted += int64(spec.epochs)
		if err != nil {
			out.failed += int64(spec.epochs)
			out.addCheck(check{Name: fmt.Sprintf("job_%d_completed", rep), OK: false, Detail: err.Error()})
			break
		}
		out.failed += int64(spec.epochs - j.Epochs)
		jobs = append(jobs, j)
		lastWall = j.WallS
	}
	if len(jobs) == 0 {
		return out, nil
	}

	// Correctness: the fixed epoch count ran, the outputs are finite, the
	// model learned, every repeat of the seed reproduced the outputs bit for
	// bit, and the workload's own invariant holds.
	first := jobs[0]
	out.addCheck(check{Name: "epochs_completed", OK: first.Epochs == spec.epochs,
		Detail: fmt.Sprintf("ran %d of %d", first.Epochs, spec.epochs)})
	finite := !math.IsNaN(first.Loss) && !math.IsInf(first.Loss, 0) && first.Loss > 0 &&
		first.MRR > 0 && first.MRR <= 1 && first.TCA > 0 && first.TCA <= 100 && first.CommBytes > 0 && first.ModelS > 0
	out.addCheck(check{Name: "outputs_finite", OK: finite, Detail: first.outputs()})
	if !env.smoke { // a smoke job is a few steps on a toy graph and learns nothing
		floor := learnedMRRFactor * randomMRR(d.NumEntities)
		out.addCheck(check{Name: "learned", OK: first.MRR >= floor && first.TCA >= learnedTCA,
			Detail: fmt.Sprintf("mrr=%.4f (floor %.4f = %dx random) tca=%.2f%% (floor %.0f%%) loss %.4f -> %.4f",
				first.MRR, floor, learnedMRRFactor, first.TCA, learnedTCA, first.FirstLoss, first.Loss)})
	}
	if len(jobs) > 1 {
		repeat := true
		for _, j := range jobs[1:] {
			repeat = repeat && sameOutputs(first, j)
		}
		out.addCheck(check{Name: "repeats_bit_equal", OK: repeat, Detail: fmt.Sprintf("%d jobs", len(jobs))})
	}
	if spec.verify != nil {
		for _, c := range spec.verify(cfg, d, first) {
			out.addCheck(c)
		}
	}
	if spec.tcp {
		// The same configuration with goroutine ranks over channels must walk
		// the same trajectory to the last bit; what the rank processes add to
		// its wall clock is the cost of the real transport.
		sp := env.tr.begin("core.Train (in-process reference)", root, 0)
		ref, err := trainInProcess(cfg, d, tcpRanks)
		env.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s in-process reference: %w", spec.name, err)
		}
		out.addCheck(check{Name: "equals_in_process_run", OK: sameOutputs(ref, first),
			Detail: fmt.Sprintf("in-process %s; processes %s", ref.outputs(), first.outputs())})
		out.set("train.in_process_wall_s", ref.WallS, "s")
	}

	var walls, setups, rss, allocs []float64
	var gc int64
	var totalWall float64
	for _, j := range jobs {
		walls = append(walls, j.WallS)
		totalWall += j.WallS
		setups = append(setups, j.SetupS)
		rss = append(rss, j.RSSMB)
		allocs = append(allocs, j.AllocMB)
		gc += j.GCCycles
	}
	wall := median(walls)
	epochs := float64(spec.epochs)
	triples := epochs * float64(len(d.Train))

	setup := median(genS)
	peak := peakRSSMB()
	if spec.tcp {
		// The rank processes generate the dataset and rendezvous themselves;
		// the parent's own kg.Generate above only sized the workload.
		setup = median(append(spawnS, setups...))
		peak = slices.Max(rss)
	}

	out.set("setup_s", setup, "s")
	out.set("train_wall_s", wall, "s")
	out.set("triples_per_s", float64(len(jobs))*triples/totalWall, "1/s")
	out.set("model_time_s", first.ModelS, "s")
	out.set("comm_mb", float64(first.CommBytes)/1e6, "MB")
	out.set("test_mrr", first.MRR, "ratio")
	out.set("test_tca_pct", first.TCA, "%")
	out.set("first_epoch_loss", first.FirstLoss, "nat")
	out.set("final_loss", first.Loss, "nat")
	out.set("peak_rss_mb", peak, "MB")
	out.set("failed_share", float64(out.failed)/float64(out.attempted), "share")
	out.set("jobs", float64(len(jobs)), "count")
	out.set("train_wall_min_s", slices.Min(walls), "s")
	out.set("train_wall_max_s", slices.Max(walls), "s")
	out.set("epochs_per_job", epochs, "count")
	out.set("triples_per_job", triples, "count")
	out.set("core.ladder_top_rung", float64(rungIndex(first.TopRung)), "rung")
	out.set("simnet.model_over_wall", first.ModelS/wall, "ratio")
	if spec.tcp {
		var dial []float64
		for _, j := range jobs {
			dial = append(dial, j.DialS)
		}
		out.set("train.rendezvous_s", median(dial), "s")
	}

	out.opSeconds = wall / epochs
	out.allocMBPerOp = median(allocs) / epochs
	out.gcCycles = gc
	out.bill = trainBill(cfg, d, spec, first)
	return out, nil
}

// rungIndex numbers the compression ladder's rungs, fp32 = 0.
func rungIndex(level string) int {
	for l := grad.LevelFP32; l <= grad.Level1BitRS; l++ {
		if l.String() == level {
			return int(l)
		}
	}
	return 0
}
