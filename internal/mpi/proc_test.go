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
// both fabrics and requires bit-identical numerics and virtual time.
func TestProcessWorldMatchesChannelWorld(t *testing.T) {
	const p, dim = 3, 64
	workload := func(c *Comm) ([]float32, float64, error) {
		buf := make([]float32, dim)
		for i := range buf {
			buf[i] = float32(c.Rank()+1) * float32(i%7)
		}
		if _, err := c.AllReduceSum(buf, "test"); err != nil {
			return nil, 0, err
		}
		idx := []int32{int32(c.Rank())}
		vals := []float32{float32(c.Rank()) * 2.5}
		allIdx, allVals, _, err := c.AllGatherRows(idx, vals, "test")
		if err != nil {
			return nil, 0, err
		}
		for r := range allIdx {
			buf[0] += float32(allIdx[r][0]) + allVals[r][0]
		}
		s, err := c.AllReduceScalar(float64(c.Rank()+1), OpMax)
		if err != nil {
			return nil, 0, err
		}
		if err := c.Barrier(); err != nil {
			return nil, 0, err
		}
		return buf, s, nil
	}

	// Reference: the channel world.
	refW := newWorld(p)
	refBufs := make([][]float32, p)
	refScalar := make([]float64, p)
	watchdog(t, "channel reference", 30*time.Second, func() {
		if err := refW.RunErr(func(c *Comm) error {
			buf, s, err := workload(c)
			refBufs[c.Rank()], refScalar[c.Rank()] = buf, s
			return err
		}); err != nil {
			t.Errorf("channel world: %v", err)
		}
	})
	refTime := refW.Cluster().MaxTime()

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
	gotBufs := make([][]float32, p)
	gotScalar := make([]float64, p)
	watchdog(t, "tcp worlds", 60*time.Second, func() {
		var wg sync.WaitGroup
		for i, w := range worlds {
			wg.Add(1)
			go func(i int, w *World) {
				defer wg.Done()
				if err := w.RunErr(func(c *Comm) error {
					buf, s, err := workload(c)
					gotBufs[i], gotScalar[i] = buf, s
					return err
				}); err != nil {
					t.Errorf("process world %d: %v", i, err)
				}
			}(i, w)
		}
		wg.Wait()
	})
	for r := 0; r < p; r++ {
		if gotScalar[r] != refScalar[r] {
			t.Fatalf("rank %d: scalar %v != reference %v", r, gotScalar[r], refScalar[r])
		}
		for j := range refBufs[r] {
			if gotBufs[r][j] != refBufs[r][j] {
				t.Fatalf("rank %d: buf[%d] = %v over TCP, %v over channels", r, j, gotBufs[r][j], refBufs[r][j])
			}
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
