package mpi

// Process-world integration: the same collectives that run over the channel
// fabric run over real TCP sockets, with every "process" simulated as an
// endpoint + private cluster in this test binary. The key invariants: the
// numeric results are identical to the channel world's, every process's
// private virtual clock advances identically (the determinism the paper's
// strategy selection depends on), and a severed connection surfaces as the
// same *RankFailedError followed by a working Shrink re-mesh.

import (
	"errors"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"kgedist/internal/simnet"
	"kgedist/internal/transport/tcptransport"
)

// dialTCPEndpoints brings up p in-process TCP endpoints meshed over
// localhost.
func dialTCPEndpoints(t *testing.T, p int) []*tcptransport.Endpoint {
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
			eps[i], errs[i] = tcptransport.Dial(tcptransport.Options{
				Rank:            i,
				WorldSize:       p,
				CoordinatorAddr: lns[0].Addr().String(),
				Listener:        lns[i],
				ConnectDeadline: 30 * time.Second,
			})
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

// TestProcessWorldMatchesChannelWorld runs a mixed collective workload over
// both fabrics and requires bit-identical numerics, all-to-all blocks, cost
// and moved bytes, and virtual time.
func TestProcessWorldMatchesChannelWorld(t *testing.T) {
	const p, dim = 3, 64
	type outcome struct {
		buf      []float32
		scalar   float64
		a2aCost  float64
		fromIdx  [][]int32
		fromVals [][]float32
	}
	workload := func(c *Comm) (o outcome, err error) {
		buf := make([]float32, dim)
		for i := range buf {
			buf[i] = float32(c.Rank()+1) * float32(i%7)
		}
		if _, err := c.AllReduceSum(buf, "test"); err != nil {
			return o, err
		}
		idx := []int32{int32(c.Rank())}
		vals := []float32{float32(c.Rank()) * 2.5}
		allIdx, allVals, _, err := c.AllGatherRows(idx, vals, "test")
		if err != nil {
			return o, err
		}
		for r := range allIdx {
			buf[0] += float32(allIdx[r][0]) + allVals[r][0]
		}
		sendIdx, sendVals := a2aSend(c.Rank(), p)
		o.fromIdx, o.fromVals = make([][]int32, p), make([][]float32, p)
		if o.a2aCost, err = c.AllToAllRows(sendIdx, sendVals, o.fromIdx, o.fromVals, "a2a"); err != nil {
			return o, err
		}
		if o.scalar, err = c.AllReduceScalar(float64(c.Rank()+1), OpMax); err != nil {
			return o, err
		}
		if err := c.Barrier(); err != nil {
			return o, err
		}
		o.buf = buf
		return o, nil
	}

	// Reference: the channel world.
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
	refTime := refW.Cluster().MaxTime()
	refMoved := refW.Cluster().BytesByTag()["a2a"]

	// Subject: three process worlds over TCP, each with a private cluster.
	eps := dialTCPEndpoints(t, p)
	worlds := make([]*World, p)
	for i, ep := range eps {
		w, err := NewProcessWorld(simnet.NewCluster(p, simnet.XC40Params()), ep)
		if err != nil {
			t.Fatalf("process world %d: %v", i, err)
		}
		worlds[i] = w
	}
	got := make([]outcome, p)
	watchdog(t, "tcp worlds", 60*time.Second, func() {
		var wg sync.WaitGroup
		for i, w := range worlds {
			wg.Add(1)
			go func(i int, w *World) {
				defer wg.Done()
				if err := w.RunErr(func(c *Comm) error {
					var err error
					got[i], err = workload(c)
					return err
				}); err != nil {
					t.Errorf("process world %d: %v", i, err)
				}
			}(i, w)
		}
		wg.Wait()
	})
	for r := 0; r < p; r++ {
		if got[r].scalar != ref[r].scalar {
			t.Fatalf("rank %d: scalar %v != reference %v", r, got[r].scalar, ref[r].scalar)
		}
		for j := range ref[r].buf {
			if got[r].buf[j] != ref[r].buf[j] {
				t.Fatalf("rank %d: buf[%d] = %v over TCP, %v over channels", r, j, got[r].buf[j], ref[r].buf[j])
			}
		}
		for s := 0; s < p; s++ {
			if !slices.Equal(got[r].fromIdx[s], ref[r].fromIdx[s]) || !slices.Equal(got[r].fromVals[s], ref[r].fromVals[s]) {
				t.Fatalf("rank %d: all-to-all block from %d is %v %v over TCP, %v %v over channels",
					r, s, got[r].fromIdx[s], got[r].fromVals[s], ref[r].fromIdx[s], ref[r].fromVals[s])
			}
		}
		if got[r].a2aCost != ref[r].a2aCost {
			t.Fatalf("rank %d: all-to-all cost %v over TCP, %v over channels", r, got[r].a2aCost, ref[r].a2aCost)
		}
		if moved := worlds[r].Cluster().BytesByTag()["a2a"]; moved != refMoved {
			t.Fatalf("rank %d: all-to-all moved %d bytes over TCP, %d over channels", r, moved, refMoved)
		}
		if gt := worlds[r].Cluster().MaxTime(); math.Abs(gt-refTime) > 1e-12 {
			t.Fatalf("rank %d: virtual time %v over TCP, %v over channels", r, gt, refTime)
		}
	}
	for _, w := range worlds {
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
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
	eps := dialTCPEndpoints(t, p)
	worlds := make([]*World, p)
	bufs := make([][]float32, p)
	for i, ep := range eps {
		w, err := NewProcessWorld(simnet.NewCluster(p, simnet.XC40Params()), ep)
		if err != nil {
			t.Fatalf("process world %d: %v", i, err)
		}
		worlds[i] = w
		bufs[i] = make([]float32, n)
	}
	defer func() {
		for _, w := range worlds {
			_ = w.Close()
		}
	}()
	run := func(calls int) {
		watchdog(t, "tcp all-reduce", 60*time.Second, func() {
			var wg sync.WaitGroup
			for i, w := range worlds {
				wg.Add(1)
				go func(i int, w *World) {
					defer wg.Done()
					if err := w.RunErr(func(c *Comm) error {
						for range calls {
							if _, err := c.AllReduceSum(bufs[i], "allocs"); err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						t.Errorf("process world %d: %v", i, err)
					}
				}(i, w)
			}
			wg.Wait()
		})
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
	eps := dialTCPEndpoints(t, p)
	worlds := make([]*World, p)
	for i, ep := range eps {
		w, err := NewProcessWorld(simnet.NewCluster(p, simnet.XC40Params()), ep)
		if err != nil {
			t.Fatalf("process world %d: %v", i, err)
		}
		worlds[i] = w
	}
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
