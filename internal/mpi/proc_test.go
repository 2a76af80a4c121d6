package mpi

// Process-world integration: the same collectives that run over the channel
// fabric run over real TCP sockets, with every "process" simulated as an
// endpoint + private cluster in this test binary. The key invariants: the
// numeric results are identical to the channel world's, every process's
// private virtual clock advances identically (the determinism the paper's
// strategy selection depends on), and a severed connection surfaces as the
// same *RankFailedError followed by a working Shrink re-mesh.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"kgedist/internal/grad"
	"kgedist/internal/simnet"
	"kgedist/internal/transport/tcptransport"
	"kgedist/internal/xrand"
)

// dialTCPEndpoints brings up p in-process TCP endpoints meshed over
// localhost. tune, when not nil, adjusts every rank's options.
func dialTCPEndpoints(t *testing.T, p int, tune func(*tcptransport.Options)) []*tcptransport.Endpoint {
	t.Helper()
	lns := make([]net.Listener, p)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
	}
	eps := make([]*tcptransport.Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := tcptransport.Options{
				Rank:            i,
				WorldSize:       p,
				CoordinatorAddr: lns[0].Addr().String(),
				Listener:        lns[i],
				ConnectDeadline: 30 * time.Second,
			}
			if tune != nil {
				tune(&opt)
			}
			eps[i], errs[i] = tcptransport.Dial(opt)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("dial rank %d: %v", i, err)
		}
	}
	return eps
}

// processWorlds wraps each endpoint in a process world over a private
// cluster, as each rank's OS process would.
func processWorlds(t *testing.T, eps []*tcptransport.Endpoint) []*World {
	t.Helper()
	worlds := make([]*World, len(eps))
	for i, ep := range eps {
		w, err := NewProcessWorld(simnet.NewCluster(len(eps), simnet.XC40Params()), ep)
		if err != nil {
			t.Fatalf("process world %d: %v", i, err)
		}
		worlds[i] = w
	}
	return worlds
}

// runEach runs body on every world at once, one goroutine per world, and
// returns each world's RunErr result.
func runEach(t *testing.T, name string, worlds []*World, body func(i int, c *Comm) error) []error {
	t.Helper()
	errs := make([]error, len(worlds))
	watchdog(t, name, 60*time.Second, func() {
		var wg sync.WaitGroup
		for i, w := range worlds {
			wg.Add(1)
			go func(i int, w *World) {
				defer wg.Done()
				errs[i] = w.RunErr(func(c *Comm) error { return body(i, c) })
			}(i, w)
		}
		wg.Wait()
	})
	return errs
}

// TestProcessWorldMatchesChannelWorld runs every collective kind over both
// fabrics at P = 2, 3 and 4 and requires identical numerics, all-to-all
// blocks, gathered payloads, encoded frames, costs, ledgers and virtual
// time, bit for bit. Before each collective the ranks charge unequal
// compute, and the slowest rank moves from one collective to the next, so
// a process world whose collective folds in fewer than every rank's clock
// reads a lower clock on some rank right after that collective.
func TestProcessWorldMatchesChannelWorld(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) { testProcessWorldMatchesChannelWorld(t, p) })
	}
}

func testProcessWorldMatchesChannelWorld(t *testing.T, p int) {
	const dim, rows, width = 64, 48, 4
	type outcome struct {
		Buf      []float32
		Scalar   float64
		FromIdx  [][]int32
		FromVals [][]float32
		RowIdx   [][]int32
		RowVals  [][]float32
		Bytes    [][]byte
		Frames   []string // hex of each reduced chunk's wire frame
		Costs    []float64
		Clocks   []uint64 // Float64bits of this rank's clock after each collective
	}
	workload := func(c *Comm) (o outcome, err error) {
		r := c.Rank()
		// step charges this rank's compute, 1–p units with the slowest rank
		// rotating, runs one collective and records its cost and the
		// rank's clock after it.
		step := func(run func() (float64, error)) error {
			units := 1 + (r+len(o.Clocks))%p
			c.Cluster().AddCompute(r, 1e6*float64(units))
			cost, err := run()
			if err != nil {
				return err
			}
			o.Costs = append(o.Costs, cost)
			o.Clocks = append(o.Clocks, math.Float64bits(c.Cluster().Time(r)))
			return nil
		}
		o.Buf = make([]float32, dim)
		for i := range o.Buf {
			o.Buf[i] = float32(r+1) * float32(i%7)
		}
		enc, _ := encGrad(r, rows, width, grad.OneBitMax, 41)
		var mg grad.Merger
		sendIdx, sendVals := a2aSend(r, p)
		o.FromIdx, o.FromVals = make([][]int32, p), make([][]float32, p)
		steps := []func() (float64, error){
			func() (float64, error) { return c.AllReduceSum(o.Buf, "sum") },
			func() (float64, error) { return c.AllReduceSum(nil, "empty") },
			func() (float64, error) {
				allIdx, allVals, cost, err := c.AllGatherRows([]int32{int32(r)}, []float32{float32(r) * 2.5}, "rows")
				o.RowIdx, o.RowVals = allIdx, allVals
				return cost, err
			},
			func() (float64, error) {
				out, cost, err := c.AllGatherBytes(bytes.Repeat([]byte{byte(r)}, r+1), "bytes")
				o.Bytes = out
				return cost, err
			},
			func() (float64, error) { return c.AllToAllRows(sendIdx, sendVals, o.FromIdx, o.FromVals, "a2a") },
			func() (float64, error) {
				frames, cost, err := c.AllReduceEncoded(enc, rows, &mg, xrand.New(uint64(900+r)), "are")
				for _, f := range frames {
					o.Frames = append(o.Frames, hex.EncodeToString(f.Marshal()))
				}
				return cost, err
			},
			func() (float64, error) {
				v, err := c.AllReduceScalar(float64(r+1), OpMax)
				o.Scalar = v
				return 0, err
			},
			func() (float64, error) { return 0, c.Barrier() },
		}
		for _, run := range steps {
			if err := step(run); err != nil {
				return o, err
			}
		}
		return o, nil
	}

	refW := newWorld(p)
	ref := make([]outcome, p)
	watchdog(t, "channel reference", 30*time.Second, func() {
		if err := refW.RunErr(func(c *Comm) error {
			var err error
			ref[c.Rank()], err = workload(c)
			return err
		}); err != nil {
			t.Errorf("channel world: %v", err)
		}
	})

	worlds := processWorlds(t, dialTCPEndpoints(t, p, nil))
	got := make([]outcome, p)
	for i, err := range runEach(t, "tcp worlds", worlds, func(i int, c *Comm) error {
		var err error
		got[i], err = workload(c)
		return err
	}) {
		if err != nil {
			t.Fatalf("process world %d: %v", i, err)
		}
	}
	// Printing compares bit for bit where it matters (%v prints the
	// shortest decimal that round-trips) and prints a nil slice as an
	// empty one, as the two fabrics deliver an empty block differently.
	wantLedger := fmt.Sprint(refW.Cluster().Stats(), refW.Cluster().BytesByTag())
	for r, w := range worlds {
		gv, rv := reflect.ValueOf(got[r]), reflect.ValueOf(ref[r])
		for f := range gv.NumField() {
			if g, want := fmt.Sprint(gv.Field(f)), fmt.Sprint(rv.Field(f)); g != want {
				t.Errorf("rank %d: %s %s over TCP, %s over channels", r, gv.Type().Field(f).Name, g, want)
			}
		}
		if g := fmt.Sprint(w.Cluster().Stats(), w.Cluster().BytesByTag()); g != wantLedger {
			t.Errorf("rank %d: ledger %s over TCP, %s over channels", r, g, wantLedger)
		}
		if g, want := w.Cluster().MaxTime(), refW.Cluster().MaxTime(); math.Float64bits(g) != math.Float64bits(want) {
			t.Errorf("rank %d: virtual time %v over TCP, %v over channels", r, g, want)
		}
	}
	for _, w := range worlds {
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestProcessCollectiveFrameCount pins a process world's collectives to
// their own data exchange: a warmed AllReduceSum at P = 3 puts exactly its
// 2(P−1) ring hops on the wire per rank, and a Barrier at most 2 (the
// binomial reduce and broadcast), with the virtual clock riding those
// frames — no separate clock exchange and no trailing rendezvous.
// Heartbeats are pushed out of the measured window.
func TestProcessCollectiveFrameCount(t *testing.T) {
	const p, n = 3, 1000
	eps := dialTCPEndpoints(t, p, func(o *tcptransport.Options) {
		o.HeartbeatInterval = time.Hour
		o.HeartbeatTimeout = 2 * time.Hour
	})
	worlds := processWorlds(t, eps)
	defer func() {
		for _, w := range worlds {
			_ = w.Close()
		}
	}()
	// settled waits until every frame sent so far has been read, so a
	// window's counts include nothing still in a write loop, and returns
	// each rank's frames sent.
	settled := func() []int64 {
		deadline := time.Now().Add(10 * time.Second)
		for {
			var sent, recv int64
			out := make([]int64, p)
			for i, ep := range eps {
				out[i] = ep.Metrics().FramesSent.Value()
				sent += out[i]
				recv += ep.Metrics().FramesRecv.Value()
			}
			if sent == recv {
				return out
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d frames sent, %d read after 10s", sent, recv)
			}
			time.Sleep(time.Millisecond)
		}
	}
	window := func(name string, body func(c *Comm) error) []int64 {
		before := settled()
		for i, err := range runEach(t, name, worlds, func(_ int, c *Comm) error { return body(c) }) {
			if err != nil {
				t.Fatalf("%s, rank %d: %v", name, i, err)
			}
		}
		after := settled()
		for i := range after {
			after[i] -= before[i]
		}
		return after
	}
	bufs := make([][]float32, p)
	for i := range bufs {
		bufs[i] = make([]float32, n)
	}
	allReduce := func(c *Comm) error {
		_, err := c.AllReduceSum(bufs[c.Rank()], "frames")
		return err
	}
	window("warm-up", allReduce)
	for i, d := range window("all-reduce", allReduce) {
		if d != 2*(p-1) {
			t.Errorf("rank %d sent %d frames in one AllReduceSum at P = %d, want %d", i, d, p, 2*(p-1))
		}
	}
	var total int64
	for i, d := range window("barrier", (*Comm).Barrier) {
		total += d
		if d > 2 {
			t.Errorf("rank %d sent %d frames in one Barrier at P = %d, want at most 2", i, d, p)
		}
	}
	if total != 2*(p-1) {
		t.Errorf("one Barrier at P = %d sent %d frames in all, want %d", p, total, 2*(p-1))
	}
}

// TestProcessDeathBetweenCollectives: rank 2 completes collective N and
// dies before N+1, as a SIGKILL between two collectives would. With no
// rendezvous closing N, a survivor may still be inside N (the dead rank's
// last frame never left its queue) or already in N+1; either way it gets
// *RankFailedError, and the survivors shrink and replay N+1 to the same
// result and the same virtual clock.
func TestProcessDeathBetweenCollectives(t *testing.T) {
	const p, dim = 3, 32
	eps := dialTCPEndpoints(t, p, nil)
	worlds := processWorlds(t, eps)
	survivors := []*World{worlds[0], worlds[1]}
	final := make([][]float32, 2)
	clocks := make([]uint64, 2)
	failedAt := make([]string, 2)
	var victimErr error
	errs := runEach(t, "death between collectives", worlds, func(i int, c *Comm) error {
		buf := make([]float32, dim)
		_, err := c.AllReduceSum(buf, "n")
		if i == 2 {
			victimErr = err
			eps[2].Inject(tcptransport.FaultSever, 0)
			eps[2].Inject(tcptransport.FaultSever, 1)
			return nil
		}
		if err != nil {
			failedAt[i] = "N"
			return err
		}
		_, err = c.AllReduceSum(buf, "n+1")
		failedAt[i] = "N+1"
		return err
	})
	if victimErr != nil {
		t.Fatalf("rank 2 failed collective N: %v", victimErr)
	}
	for i := range survivors {
		var rfe *RankFailedError
		if !errors.As(errs[i], &rfe) || !slices.Equal(rfe.Ranks, []int{2}) {
			t.Fatalf("rank %d: got %v after rank 2 died between collectives, want rank 2 failed", i, errs[i])
		}
	}
	t.Logf("survivors 0 and 1 saw the death at collectives %v", failedAt)
	watchdog(t, "shrink", 60*time.Second, func() {
		var wg sync.WaitGroup
		for i, w := range survivors {
			wg.Add(1)
			go func(i int, w *World) {
				defer wg.Done()
				nw, err := w.Shrink(w.Failed())
				if err != nil {
					t.Errorf("rank %d: shrink: %v", i, err)
					return
				}
				survivors[i] = nw
			}(i, w)
		}
		wg.Wait()
	})
	if t.Failed() {
		return
	}
	for i, err := range runEach(t, "replay", survivors, func(i int, c *Comm) error {
		buf := make([]float32, dim)
		for j := range buf {
			buf[j] = float32(c.Rank() + 1)
		}
		c.Cluster().AddCompute(c.Rank(), 1e6*float64(c.Rank()+1))
		if _, err := c.AllReduceSum(buf, "n+1"); err != nil {
			return err
		}
		final[i] = buf
		clocks[i] = math.Float64bits(c.Cluster().Time(c.Rank()))
		return nil
	}) {
		if err != nil {
			t.Fatalf("survivor %d: replay after shrink: %v", i, err)
		}
	}
	for i, buf := range final {
		for j, v := range buf {
			if v != 3 {
				t.Fatalf("survivor %d: replayed buf[%d] = %v, want 3", i, j, v)
			}
		}
	}
	if clocks[0] != clocks[1] {
		t.Fatalf("survivors' clocks differ after the replay: %v vs %v", math.Float64frombits(clocks[0]), math.Float64frombits(clocks[1]))
	}
	for _, w := range []*World{survivors[0], survivors[1], worlds[2]} {
		_ = w.Close()
	}
}

// TestProcessAllReduceSteadyStateAllocs: over TCP each ring step's staging
// copy goes back to the pool once its frame is sealed, and the receiver
// returns what it decoded, so after warm-up an AllReduceSum allocates far
// less than its own buffer.
func TestProcessAllReduceSteadyStateAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	const p, n, warm, iters = 2, 256 << 10, 16, 64
	// A collection empties the pool; that is a GC-timing artefact, not the
	// steady state this test pins.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	worlds := processWorlds(t, dialTCPEndpoints(t, p, nil))
	bufs := make([][]float32, p)
	for i := range bufs {
		bufs[i] = make([]float32, n)
	}
	defer func() {
		for _, w := range worlds {
			_ = w.Close()
		}
	}()
	run := func(calls int) {
		for i, err := range runEach(t, "tcp all-reduce", worlds, func(i int, c *Comm) error {
			for range calls {
				if _, err := c.AllReduceSum(bufs[i], "allocs"); err != nil {
					return err
				}
			}
			return nil
		}) {
			if err != nil {
				t.Errorf("process world %d: %v", i, err)
			}
		}
	}
	run(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(iters)
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / iters
	t.Logf("%.0f bytes allocated per call across both ranks", perCall)
	if limit := float64(4*n) / 16; perCall >= limit {
		t.Errorf("steady-state AllReduceSum of %d floats over TCP allocates %.0f bytes per call across both ranks, want < %.0f (1/16 of the buffer)",
			n, perCall, limit)
	}
}

// TestProcessWorldShrinkOverTCP severs a real connection mid-collective,
// requires the survivors to observe the typed failure, shrink, re-mesh, and
// finish the job with results identical to a 2-rank channel world.
func TestProcessWorldShrinkOverTCP(t *testing.T) {
	const p, dim = 3, 32
	eps := dialTCPEndpoints(t, p, nil)
	worlds := processWorlds(t, eps)
	// Rank 2 "crashes": both of its connections drop without byes, exactly
	// what a SIGKILL looks like from the survivors' side.
	eps[2].Inject(tcptransport.FaultSever, 0)
	eps[2].Inject(tcptransport.FaultSever, 1)

	watchdog(t, "shrink over tcp", 90*time.Second, func() {
		survivors := []int{0, 1}
		var wg sync.WaitGroup
		final := make([][]float32, 2)
		for i, r := range survivors {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				w := worlds[r]
				err := w.RunErr(func(c *Comm) error {
					buf := make([]float32, dim)
					_, err := c.AllReduceSum(buf, "doomed")
					return err
				})
				var rfe *RankFailedError
				if !errors.As(err, &rfe) {
					t.Errorf("rank %d: collective with severed peer returned %v, want *RankFailedError", r, err)
					return
				}
				dead := w.Failed()
				nw, err := w.Shrink(dead)
				if err != nil {
					t.Errorf("rank %d: shrink(%v): %v", r, dead, err)
					return
				}
				defer nw.Close()
				if err := nw.RunErr(func(c *Comm) error {
					buf := make([]float32, dim)
					for j := range buf {
						buf[j] = float32(c.Rank() + 1)
					}
					if _, err := c.AllReduceSum(buf, "recovered"); err != nil {
						return err
					}
					final[i] = buf
					return nil
				}); err != nil {
					t.Errorf("rank %d: collective after shrink: %v", r, err)
				}
			}(i, r)
		}
		wg.Wait()
		// Both survivors computed 1+2 in every slot of the recovered
		// all-reduce.
		for i, buf := range final {
			if buf == nil {
				t.Fatalf("survivor %d never finished the recovered collective", i)
			}
			for j, v := range buf {
				if v != 3 {
					t.Fatalf("survivor %d: recovered buf[%d] = %v, want 3", i, j, v)
				}
			}
		}
	})
	_ = worlds[2].Close()
}
