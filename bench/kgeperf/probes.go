package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"kgedist/internal/binpack"
	"kgedist/internal/eval"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/metrics"
	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/opt"
	"kgedist/internal/partition"
	"kgedist/internal/serve"
	"kgedist/internal/simnet"
	"kgedist/internal/transport"
	"kgedist/internal/transport/chantransport"
	"kgedist/internal/transport/tcptransport"
	"kgedist/internal/xrand"
)

// probe is one per-layer measurement: the value as reported, and — for
// metrics that are a cost — the seconds one billed unit of it takes, which
// is what the attribution multiplies by a workload's unit counts.
type probe struct {
	value      float64
	unit       string
	secPerUnit float64
}

// probeSet replays the layers through their public functions, one rank's
// batch pipeline on the training fixture and one server's request pipeline
// on the serving fixture. Every timed call sits inside a span. The shapes
// are fixed (README "Per-layer metrics"), so a probe reads the same on every
// workload of one commit; what differs per workload is how many units of
// each probe one of its operations consumes (bills.go).
type probeSet struct {
	env    *runEnv
	root   int
	budget time.Duration
	out    map[string]probe
	sh     *shapes
}

// runProbes measures every probe metric in spec.go's perLayer table.
func runProbes(env *runEnv) (map[string]probe, *shapes, error) {
	ps := &probeSet{env: env, budget: 120 * time.Millisecond, out: map[string]probe{}, sh: &shapes{}}
	if env.smoke {
		ps.budget = 2 * time.Millisecond
	}
	ps.root = env.tr.begin("probes", -1, 0)
	defer env.tr.end(ps.root)

	tf := ps.trainFixture()
	sf, err := newServeFixture(env.seed, env.smoke, env.workdir)
	if err != nil {
		return nil, nil, err
	}
	steps := []func() error{
		func() error { ps.modelProbes(tf, sf); return nil },
		func() error { return ps.checkpointProbes(sf) },
		func() error { return ps.gradProbes(tf) },
		func() error { return ps.mpiProbes(tf) },
		func() error { return ps.transportProbes() },
		func() error { ps.optProbes(tf); return nil },
		func() error { ps.evalProbes(tf, sf); return nil },
		func() error { return ps.partitionProbes(tf) },
		func() error { return ps.serveProbes(sf) },
		func() error { return ps.binpackProbes(sf) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	return ps.out, ps.sh, nil
}

// timeIt calls fn until the budget is spent (at least 3 and at most 400
// times), each call in its own span, and returns the median seconds per
// call. prep, when non-nil, runs before each call outside the timed span.
func (ps *probeSet) timeIt(name string, prep, fn func()) float64 {
	var secs []float64
	start := time.Now()
	for len(secs) < 3 || (time.Since(start) < ps.budget && len(secs) < 400) {
		if prep != nil {
			prep()
		}
		sp := ps.env.tr.begin(name, ps.root, 0)
		t0 := time.Now()
		fn()
		secs = append(secs, time.Since(t0).Seconds())
		ps.env.tr.end(sp)
	}
	return median(secs)
}

// cost records a metric whose value is seconds-per-unit scaled to a display
// unit (scale 1e9 for ns, 1e6 for us, 1e3 for ms, 1 for s).
func (ps *probeSet) cost(name string, secPerUnit, scale float64, unit string) {
	ps.out[name] = probe{value: secPerUnit * scale, unit: unit, secPerUnit: secPerUnit}
}

// rate records a throughput metric in MB/s; a billed unit is one MB.
func (ps *probeSet) rate(name string, mbPerS float64) {
	p := probe{value: mbPerS, unit: "MB/s"}
	if mbPerS > 0 {
		p.secPerUnit = 1 / mbPerS
	}
	ps.out[name] = p
}

// plain records a metric that is not a cost (a size, a ratio).
func (ps *probeSet) plain(name string, v float64, unit string) {
	ps.out[name] = probe{value: v, unit: unit}
}

// sink keeps the compiler from discarding a probe's pure computation.
var sink float32

// ---- fixtures --------------------------------------------------------------

// trainFix is the training-side fixture: the seed's dataset, freshly
// initialised ComplEx parameters, and one real batch gradient per rank (the
// first batch of each rank's uniform shard, one negative per positive).
type trainFix struct {
	d      *kg.Dataset
	m      model.Model
	p      *model.Params
	width  int
	batch  []kg.Triple // rank 0's first batch
	entG   []*grad.SparseGrad
	relG   []*grad.SparseGrad
	seed   uint64
	filter *kg.FilterIndex
}

func (ps *probeSet) trainFixture() *trainFix {
	env := ps.env
	spec, _ := findTrainSpec("train_dense")
	cfg := trainConfig(spec, env.seed, env.smoke, env.workdir)
	tf := &trainFix{seed: env.seed}
	gen := trainDataset(env.seed, env.smoke)
	sec := ps.timeIt("kg.Generate", nil, func() { tf.d = kg.Generate(gen) })
	ps.cost("kg.generate_s", sec, 1, "s")
	tf.m = model.New(cfg.ModelName, cfg.Dim)
	tf.width = tf.m.Width()
	tf.p = model.NewParams(tf.m, tf.d.NumEntities, tf.d.NumRelations)
	tf.p.Init(tf.m, xrand.New(env.seed).Split(0))
	tf.filter = kg.NewFilterIndex(tf.d)
	shards := kg.UniformPartition(tf.d.Train, trainRanks)
	for r := 0; r < trainRanks; r++ {
		n := min(cfg.BatchSize, len(shards[r]))
		batch := shards[r][:n]
		if r == 0 {
			tf.batch = batch
		}
		sampler := model.NewNegSampler(tf.d.NumEntities, xrand.New(env.seed).Split(uint64(100+r)))
		entG, relG := grad.NewSparseGrad(tf.width), grad.NewSparseGrad(tf.width)
		for _, pos := range batch {
			for _, lt := range []struct {
				t kg.Triple
				y float32
			}{{pos, 1}, {sampler.Corrupt(pos), -1}} {
				coef := model.LogisticLossGrad(tf.m.Score(tf.p, lt.t), lt.y)
				tf.m.AccumulateScoreGrad(tf.p, lt.t, coef, entG.Row(lt.t.H), relG.Row(lt.t.R), entG.Row(lt.t.T))
			}
		}
		tf.entG = append(tf.entG, entG)
		tf.relG = append(tf.relG, relG)
	}
	ps.sh.width = float64(tf.width)
	ps.sh.entRows, ps.sh.relRows = float64(tf.entG[0].Len()), float64(tf.relG[0].Len())
	for k := 1; k <= trainRanks; k++ {
		ps.sh.entUnion = append(ps.sh.entUnion, float64(unionRows(tf.entG[:k])))
		ps.sh.relUnion = append(ps.sh.relUnion, float64(unionRows(tf.relG[:k])))
	}
	return tf
}

// cloneGrad copies src into dst (cleared first).
func cloneGrad(dst, src *grad.SparseGrad) {
	dst.Clear()
	idx, flat := src.Flatten()
	dst.AddFlat(idx, flat)
}

// unionRows is the number of distinct rows across the ranks' gradients: the
// rows an aggregated exchange hands the optimizer.
func unionRows(gs []*grad.SparseGrad) int {
	seen := map[int32]bool{}
	for _, g := range gs {
		for _, id := range g.Indices() {
			seen[id] = true
		}
	}
	return len(seen)
}

// ---- model -----------------------------------------------------------------

func (ps *probeSet) modelProbes(tf *trainFix, sf *serveFixture) {
	n := float64(len(tf.batch))
	sec := ps.timeIt("model.Score", nil, func() {
		var s float32
		for _, t := range tf.batch {
			s += tf.m.Score(tf.p, t)
		}
		sink = s
	})
	ps.cost("model.score_ns_per_triple", sec/n, 1e9, "ns")

	gh, gr, gt := make([]float32, tf.width), make([]float32, tf.width), make([]float32, tf.width)
	sec = ps.timeIt("model.Score+AccumulateScoreGrad", nil, func() {
		for _, t := range tf.batch {
			coef := model.LogisticLossGrad(tf.m.Score(tf.p, t), 1)
			tf.m.AccumulateScoreGrad(tf.p, t, coef, gh, gr, gt)
		}
	})
	ps.cost("model.grad_ns_per_triple", sec/n, 1e9, "ns")

	const negs = sparseNegs
	sampler := model.NewNegSampler(tf.d.NumEntities, xrand.New(tf.seed).Split(7))
	negBuf := make([]kg.Triple, 0, negs)
	sec = ps.timeIt("model.SelectHardest", nil, func() {
		for _, t := range tf.batch {
			neg, _ := model.SelectHardest(tf.m, tf.p, sampler, t, negs, negBuf)
			sink += float32(neg.H)
		}
	})
	ps.cost("model.select_hardest_ns", sec/n, 1e9, "ns")

	sec = ps.timeIt("model.CorruptN", nil, func() {
		for _, t := range tf.batch {
			negBuf = sampler.CorruptN(t, negs, negBuf)
		}
	})
	ps.cost("model.corrupt_ns_per_neg", sec/(n*negs), 1e9, "ns")

	// The read-only 1-vs-N sweep of the serving table.
	fix, rel := sf.p.Entity.Row(0), sf.p.Relation.Row(0)
	rows := sf.p.Entity.Rows
	sec = ps.timeIt("model.ScoreRows sweep", nil, func() {
		var s float32
		for e := 0; e < rows; e++ {
			s += sf.m.ScoreRows(fix, rel, sf.p.Entity.Row(e))
		}
		sink = s
	})
	ps.cost("model.sweep_ns_per_row", sec/float64(rows), 1e9, "ns")
}

func (ps *probeSet) checkpointProbes(sf *serveFixture) error {
	path := filepath.Join(ps.env.workdir, "probe.kge")
	var err error
	sec := ps.timeIt("model.SaveCheckpoint", nil, func() {
		if e := model.SaveCheckpoint(path, sf.m, sf.p); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("checkpoint save probe: %w", err)
	}
	ps.cost("model.checkpoint_save_s", sec, 1, "s")
	ps.sh.ckptFloats = float64(len(sf.p.Entity.Data) + len(sf.p.Relation.Data))
	sec = ps.timeIt("model.LoadCheckpoint", nil, func() {
		if _, _, e := model.LoadCheckpoint(path); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("checkpoint load probe: %w", err)
	}
	ps.cost("model.checkpoint_load_s", sec, 1, "s")
	return nil
}

// ---- grad ------------------------------------------------------------------

func (ps *probeSet) gradProbes(tf *trainFix) error {
	src := tf.entG[0]
	rows := float64(src.Len())
	values := rows * float64(tf.width)
	rng := xrand.New(tf.seed).Split(21)

	// Row materialisation, the cost every accumulated triple pays thrice.
	var ids []int32
	for _, t := range tf.batch {
		ids = append(ids, t.H, t.T)
	}
	acc := grad.NewSparseGrad(tf.width)
	sec := ps.timeIt("grad.SparseGrad.Row", acc.Clear, func() {
		for _, id := range ids {
			sink += acc.Row(id)[0]
		}
	})
	ps.cost("grad.sparse_accum_ns_per_row", sec/float64(len(ids)), 1e9, "ns")

	work := grad.NewSparseGrad(tf.width)
	sec = ps.timeIt("grad.Select", func() { cloneGrad(work, src) }, func() {
		st := grad.Select(work, grad.SelectBernoulli, rng)
		ps.sh.keepFrac = float64(st.Kept) / float64(max(st.Before, 1))
	})
	ps.cost("grad.select_ns_per_row", sec/rows, 1e9, "ns")

	var enc1, enc2, dec grad.Encoded
	sec = ps.timeIt("grad.QuantizeInto 1bit", nil, func() { grad.QuantizeInto(&enc1, src, grad.OneBitMax, rng) })
	ps.cost("grad.quantize_1bit_ns_per_value", sec/values, 1e9, "ns")
	sec = ps.timeIt("grad.QuantizeInto 2bit", nil, func() { grad.QuantizeInto(&enc2, src, grad.TwoBitTernary, rng) })
	ps.cost("grad.quantize_2bit_ns_per_value", sec/values, 1e9, "ns")

	var wire []byte
	sec = ps.timeIt("grad.Encoded.Marshal", nil, func() { wire = enc1.Marshal() })
	mb := float64(len(wire)) / 1e6
	ps.rate("grad.encode_mb_per_s", mb/sec)
	ps.plain("grad.wire_bytes_per_row", float64(len(wire))/rows, "B")
	ps.sh.wire1PerRow = float64(len(wire)) / rows
	ps.sh.wire2PerRow = float64(enc2.WireBytes()) / rows

	agg := grad.NewSparseGrad(tf.width)
	var derr error
	sec = ps.timeIt("grad.UnmarshalInto+Dequantize", agg.Clear, func() {
		if err := grad.UnmarshalInto(&dec, wire); err != nil {
			derr = err
			return
		}
		grad.Dequantize(&dec, agg)
	})
	if derr != nil {
		return fmt.Errorf("decode probe: %w", derr)
	}
	ps.rate("grad.decode_mb_per_s", mb/sec)

	// Compressed-domain merge of two ranks' 2-bit frames.
	var other grad.Encoded
	grad.QuantizeInto(&other, tf.entG[1], grad.TwoBitTernary, rng)
	var mg grad.Merger
	sec = ps.timeIt("grad.Merger.MergeInto", nil, func() { mg.MergeInto(&enc2, &other, rng) })
	ps.cost("grad.merge_ns_per_row", sec/float64(len(enc2.Indices)+len(other.Indices)), 1e9, "ns")

	ctrl := grad.NewController(0, 0)
	sec = ps.timeIt("grad.Controller.Observe", nil, func() { ctrl.Observe(src) })
	ps.cost("grad.observe_ns_per_value", sec/values, 1e9, "ns")
	return nil
}

// ---- mpi -------------------------------------------------------------------

// collective times one collective on an in-process channel world of the
// training world size: every rank runs body iters times, and rank 0's
// per-call wall time (which includes waiting for its peers, as in training)
// is what the median is taken over.
func (ps *probeSet) collective(name string, ranks int, setup func(rank int) func(c *mpi.Comm) error) (float64, error) {
	run := func(iters int) ([]float64, error) {
		world := mpi.NewWorld(simnet.NewCluster(ranks, simnet.XC40Params()))
		var secs []float64
		err := world.RunErr(func(c *mpi.Comm) error {
			body := setup(c.Rank())
			for i := 0; i < iters; i++ {
				sp := -1
				if c.Rank() == 0 {
					sp = ps.env.tr.begin(name, ps.root, 0)
				}
				t0 := time.Now()
				if err := body(c); err != nil {
					return err
				}
				if c.Rank() == 0 {
					secs = append(secs, time.Since(t0).Seconds())
					ps.env.tr.end(sp)
				}
			}
			return nil
		})
		return secs, err
	}
	warm, err := run(2)
	if err != nil {
		return 0, fmt.Errorf("%s probe: %w", name, err)
	}
	iters := 3
	if est := median(warm); est > 0 {
		iters = max(3, min(400, int(ps.budget.Seconds()/est)))
	}
	secs, err := run(iters)
	if err != nil {
		return 0, fmt.Errorf("%s probe: %w", name, err)
	}
	return median(secs), nil
}

func (ps *probeSet) mpiProbes(tf *trainFix) error {
	dense := tf.d.NumEntities * tf.width
	sec, err := ps.collective("mpi.AllReduceSum", trainRanks, func(int) func(*mpi.Comm) error {
		buf := make([]float32, dense)
		return func(c *mpi.Comm) error {
			_, err := c.AllReduceSum(buf, "entity")
			return err
		}
	})
	if err != nil {
		return err
	}
	ps.cost("mpi.allreduce_ms", sec, 1e3, "ms")

	// The sparse path's payload: RS-selected rows, 1-bit quantized.
	sec, err = ps.collective("mpi.AllGatherBytes", trainRanks, func(rank int) func(*mpi.Comm) error {
		rng := xrand.New(tf.seed).Split(uint64(31 + rank))
		g := grad.NewSparseGrad(tf.width)
		cloneGrad(g, tf.entG[rank])
		grad.Select(g, grad.SelectBernoulli, rng)
		payload := grad.Quantize(g, grad.OneBitMax, rng).Marshal()
		return func(c *mpi.Comm) error {
			_, _, err := c.AllGatherBytes(payload, "entity")
			return err
		}
	})
	if err != nil {
		return err
	}
	ps.cost("mpi.allgather_bytes_ms", sec, 1e3, "ms")

	sec, err = ps.collective("mpi.ReduceScatterEncoded", trainRanks, func(rank int) func(*mpi.Comm) error {
		rng := xrand.New(tf.seed).Split(uint64(41 + rank))
		own := grad.Quantize(tf.entG[rank], grad.TwoBitTernary, rng)
		mg := new(grad.Merger)
		return func(c *mpi.Comm) error {
			_, _, err := c.ReduceScatterEncoded(own, tf.d.NumEntities, mg, rng, "entity")
			return err
		}
	})
	if err != nil {
		return err
	}
	ps.cost("mpi.reduce_scatter_encoded_ms", sec, 1e3, "ms")

	sec, err = ps.collective("mpi.Barrier", trainRanks, func(int) func(*mpi.Comm) error {
		return func(c *mpi.Comm) error { return c.Barrier() }
	})
	if err != nil {
		return err
	}
	ps.cost("mpi.barrier_us", sec, 1e6, "us")
	return nil
}

// ---- transport -------------------------------------------------------------

// pingPong measures a two-endpoint fabric from rank 0: the round trip of a
// small frame, then the one-way rate of 1 MB float frames (closed by one
// acknowledgement, so the clock stops when the last frame has arrived).
func (ps *probeSet) pingPong(name string, a, b transport.Endpoint) (rttSec, mbPerS float64, payloadBytes int64, err error) {
	const frameFloats = 1 << 18 // 1 MB
	rounds, frames := 200, 24
	if ps.env.smoke {
		rounds, frames = 10, 2
	}
	small := []float32{1}
	big := make([]float32, frameFloats)
	var wg sync.WaitGroup
	var peerErr error
	wg.Add(1)
	go func() { // rank 1: echo the small frames, swallow the big ones, acknowledge
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			m, err := b.Recv(0, 0)
			if err == nil {
				err = b.Send(0, m)
			}
			if err != nil {
				peerErr = err
				return
			}
		}
		for i := 0; i < frames; i++ {
			if _, err := b.Recv(0, 0); err != nil {
				peerErr = err
				return
			}
		}
		peerErr = b.Send(0, transport.Message{F32: small})
	}()
	var rtts []float64
	for i := 0; i < rounds && err == nil; i++ {
		sp := ps.env.tr.begin(name+" round trip", ps.root, 0)
		t0 := time.Now()
		if err = a.Send(1, transport.Message{Seq: uint64(i), F32: small}); err == nil {
			_, err = a.Recv(1, 0)
		}
		rtts = append(rtts, time.Since(t0).Seconds())
		ps.env.tr.end(sp)
	}
	if err == nil {
		sp := ps.env.tr.begin(name+" 1MB frames", ps.root, 0)
		t0 := time.Now()
		for i := 0; i < frames && err == nil; i++ {
			err = a.Send(1, transport.Message{Seq: uint64(i), F32: big})
		}
		if err == nil {
			_, err = a.Recv(1, 0)
		}
		mbPerS = float64(frames) * 4 * frameFloats / 1e6 / time.Since(t0).Seconds()
		ps.env.tr.end(sp)
	}
	if err != nil {
		// Unblock the peer before waiting for it.
		_ = a.Close()
	}
	wg.Wait()
	if err == nil {
		err = peerErr
	}
	return median(rtts), mbPerS, int64(frames) * 4 * frameFloats, err
}

func (ps *probeSet) transportProbes() error {
	hub := chantransport.New(2)
	_, chanRate, _, err := ps.pingPong("chantransport", hub.Endpoint(0), hub.Endpoint(1))
	if err != nil {
		return fmt.Errorf("chantransport probe: %w", err)
	}
	ps.rate("transport.chan_mb_per_s", chanRate)

	// A two-process-shaped TCP mesh inside this process, over loopback.
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return fmt.Errorf("tcp probe listen: %w", err)
		}
		lns[i] = ln
	}
	eps := make([]*tcptransport.Endpoint, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	sp := ps.env.tr.begin("tcptransport.Dial", ps.root, 0)
	t0 := time.Now()
	for r := range eps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = tcptransport.Dial(tcptransport.Options{
				Rank: r, WorldSize: 2, CoordinatorAddr: lns[0].Addr().String(), Listener: lns[r],
				BuildTag: "kgeperf-probe", ConnectDeadline: 30 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	dial := time.Since(t0).Seconds()
	ps.env.tr.end(sp)
	for r, err := range errs {
		if err != nil {
			for _, ep := range eps {
				if ep != nil {
					_ = ep.Close()
				}
			}
			return fmt.Errorf("tcp probe dial rank %d: %w", r, err)
		}
	}
	ps.cost("transport.dial_s", dial, 1, "s")

	sentBefore := eps[0].Metrics().BytesSent.Value()
	rtt, rate, payload, err := ps.pingPong("tcptransport", eps[0], eps[1])
	sent := eps[0].Metrics().BytesSent.Value() - sentBefore
	for _, ep := range eps {
		if cerr := ep.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("tcptransport probe: %w", err)
	}
	ps.cost("transport.tcp_rtt_us", rtt, 1e6, "us")
	ps.rate("transport.tcp_mb_per_s", rate)
	ps.plain("transport.wire_over_payload", float64(sent)/float64(payload), "ratio")
	return nil
}

// ---- opt -------------------------------------------------------------------

func (ps *probeSet) optProbes(tf *trainFix) {
	agg := tf.entG[0]
	params := tf.p.Clone() // Adam writes the rows; keep the fixture pristine
	adam := opt.NewAdam(tf.d.NumEntities, tf.width)
	sec := ps.timeIt("opt.Adam.ApplyRow", nil, func() {
		adam.BeginStep()
		agg.ForEach(func(id int32, row []float32) {
			adam.ApplyRow(id, params.Entity.Row(int(id)), row, 0.01)
		})
	})
	ps.cost("opt.adam_ns_per_row", sec/float64(agg.Len()), 1e9, "ns")
}

// ---- eval ------------------------------------------------------------------

func (ps *probeSet) evalProbes(tf *trainFix, sf *serveFixture) {
	triples := 16
	if ps.env.smoke {
		triples = 4
	}
	triples = min(triples, len(tf.d.Test))
	sec := ps.timeIt("eval.LinkPrediction", nil, func() {
		eval.LinkPrediction(tf.m, tf.p, tf.d, tf.filter, triples, xrand.New(tf.seed+999))
	})
	ps.cost("eval.link_prediction_ms_per_triple", sec/float64(triples), 1e3, "ms")

	sec = ps.timeIt("eval.TripleClassification", nil, func() {
		eval.TripleClassification(tf.m, tf.p, tf.d, tf.filter, xrand.New(tf.seed+999))
	})
	ps.cost("eval.tca_s", sec, 1, "s")

	// One serving sweep's worth of offers to a top-10 accumulator.
	rng := xrand.New(tf.seed).Split(51)
	scores := make([]float32, sf.p.Entity.Rows)
	for i := range scores {
		scores[i] = rng.Float32()
	}
	acc := eval.NewTopK(predictK)
	sec = ps.timeIt("eval.TopKAccumulator.Offer", func() { acc.Reset(predictK) }, func() {
		for e, s := range scores {
			acc.Offer(int32(e), s)
		}
	})
	ps.cost("eval.topk_ns_per_offer", sec/float64(len(scores)), 1e9, "ns")
}

// ---- partition -------------------------------------------------------------

func (ps *probeSet) partitionProbes(tf *trainFix) error {
	var plan *partition.Plan
	var err error
	sec := ps.timeIt("partition.Build", nil, func() {
		plan, err = partition.Build(tf.d, partition.Options{Ranks: trainRanks, Algo: "mincut", Seed: tf.seed})
	})
	if err != nil {
		return fmt.Errorf("partition probe: %w", err)
	}
	ps.cost("partition.build_s", sec, 1, "s")
	q := plan.Quality()
	ps.plain("partition.cut_ratio", q.CutRatio, "ratio")
	ps.plain("partition.remote_row_fraction", q.RemoteRowFraction, "ratio")
	return nil
}

// ---- serve -----------------------------------------------------------------

func (ps *probeSet) serveProbes(sf *serveFixture) error {
	var err error
	sec := ps.timeIt("serve.OpenStore", nil, func() {
		if _, e := serve.OpenStore(sf.path, 0); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("open store probe: %w", err)
	}
	ps.cost("serve.open_store_s", sec, 1, "s")

	srv, err := serve.New(sf.serveConfig())
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	defer srv.Close()
	sec = ps.timeIt("serve.Server.Reload", nil, func() {
		if e := srv.Reload(""); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("reload probe: %w", err)
	}
	ps.cost("serve.reload_s", sec, 1, "s")

	// The exact predict handler with no socket: decode, cache miss, batcher,
	// sweep, top-k, encode. Queries are unique, far from the workload's.
	handler := srv.Handler()
	i := sf.p.Entity.Rows / 2
	sec = ps.timeIt("serve.Handler.ServeHTTP", nil, func() {
		i++
		q := sf.queryAt(i)
		body := fmt.Sprintf(`{"head":%d,"relation":%d,"k":%d}`, q.E, q.R, predictK)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/predict", strings.NewReader(body)))
		if rec.Code != 200 {
			err = fmt.Errorf("handler returned %d: %s", rec.Code, rec.Body.String())
		}
	})
	if err != nil {
		return fmt.Errorf("handler probe: %w", err)
	}
	ps.cost("serve.handler_p50_ms", sec, 1e3, "ms")

	// A lone query through the micro-batcher with a free executor: what is
	// left is the batching window and the two channel hand-offs.
	cfg := sf.serveConfig()
	b := serve.NewBatcher(cfg.MaxBatch, cfg.BatchWindow, metrics.NewHistogram(metrics.SizeBuckets(1024)...),
		func(qs []serve.PredictQuery) []serve.PredictResult { return make([]serve.PredictResult, len(qs)) })
	sec = ps.timeIt("serve.Batcher.Submit", nil, func() {
		if res := b.Submit(serve.PredictQuery{Side: "tail", K: predictK}); res.Err != nil {
			err = res.Err
		}
	})
	b.Stop()
	if err != nil {
		return fmt.Errorf("batcher probe: %w", err)
	}
	ps.cost("serve.batcher_wait_us", sec, 1e6, "us")

	const keys = 4096
	cache := serve.NewCache(cfg.CacheSize)
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("predict|tail|%d|%d|0|%d|false", k*17, k%16, predictK)
	}
	val, err := json.Marshal(probeAnswer())
	if err != nil {
		return err
	}
	sec = ps.timeIt("serve.Cache.Put", nil, func() {
		for _, k := range names {
			cache.Put(k, val)
		}
	})
	ps.cost("serve.cache_put_ns", sec/keys, 1e9, "ns")
	sec = ps.timeIt("serve.Cache.Get", nil, func() {
		for _, k := range names {
			if v, ok := cache.Get(k); ok {
				sink += float32(len(v))
			}
		}
	})
	ps.cost("serve.cache_get_ns", sec/keys, 1e9, "ns")

	const encodes = 256
	answer := probeAnswer()
	sec = ps.timeIt("json.Marshal predict response", nil, func() {
		for k := 0; k < encodes; k++ {
			if _, e := json.Marshal(answer); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	ps.cost("serve.json_encode_us", sec/encodes, 1e6, "us")
	return nil
}

// probeAnswer is a predict response of the served shape: a side and k
// scored completions.
func probeAnswer() predictBody {
	pb := predictBody{Side: "tail"}
	for k := 0; k < predictK; k++ {
		pb.Completions = append(pb.Completions, completion{Entity: int32(1000 + 37*k), Score: -0.125 * float32(k+1)})
	}
	return pb
}

// ---- binpack ---------------------------------------------------------------

func (ps *probeSet) binpackProbes(sf *serveFixture) error {
	var ix *binpack.Index
	var err error
	sec := ps.timeIt("binpack.BuildFromParams", nil, func() {
		ix, err = binpack.BuildFromParams(sf.m, sf.p)
	})
	if err != nil {
		return fmt.Errorf("binpack build probe: %w", err)
	}
	ps.cost("binpack.build_s", sec, 1, "s")
	ps.plain("binpack.index_mb", float64(ix.Bytes())/1e6, "MB")

	rows, words := ix.Rows(), ix.Words()
	codes := make([]uint64, 0, rows*words)
	for e := 0; e < rows; e++ {
		codes = append(codes, ix.Code(e)...)
	}
	dists := make([]int32, rows)
	kernel := binpack.Kernel()
	sec = ps.timeIt("binpack.HammingBlock", nil, func() { kernel.HammingBlock(ix.Code(0), codes, words, dists) })
	ps.cost("binpack.hamming_ns_per_row", sec/float64(rows), 1e9, "ns")

	candidates := 1024
	if ps.env.smoke {
		candidates = 256
	}
	sc := binpack.NewScratch()
	entityRow := func(e int) []float32 { return sf.p.Entity.Row(e) }
	i := 0
	sec = ps.timeIt("binpack.Index.Search", nil, func() {
		i++
		q := sf.queryAt(i)
		if _, _, _, e := ix.Search(sf.m, "tail", sf.p.Entity.Row(q.E), sf.p.Relation.Row(q.R), entityRow, predictK, candidates, nil, sc); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("binpack search probe: %w", err)
	}
	ps.cost("binpack.search_us", sec, 1e6, "us")
	return nil
}
