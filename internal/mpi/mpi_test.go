package mpi

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"kgedist/internal/simnet"
	"kgedist/internal/xrand"
)

func newWorld(p int) *World {
	return NewWorld(simnet.NewCluster(p, simnet.XC40Params()))
}

// watchdog runs fn and fails the test with a full goroutine dump if it does
// not return within timeout. A hung collective rendezvous otherwise stalls
// the whole test binary until the go test deadline with no indication of
// which ranks are stuck where; the dump shows every rank's blocked frame.
func watchdog(t *testing.T, name string, timeout time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("%s: rendezvous timed out after %v; goroutine dump:\n%s", name, timeout, buf[:n])
	}
}

func TestRankAndSize(t *testing.T) {
	w := newWorld(3)
	if w.Size() != 3 {
		t.Fatalf("Size = %d", w.Size())
	}
	seen := make([]bool, 3)
	var mu sync.Mutex
	w.Run(func(c *Comm) {
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
		if c.Size() != 3 {
			t.Errorf("rank %d sees size %d", c.Rank(), c.Size())
		}
	})
	for r, s := range seen {
		if !s {
			t.Fatalf("rank %d never ran", r)
		}
	}
}

func TestCommPanicsOnBadRank(t *testing.T) {
	w := newWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Comm(2)
}

func TestRunPropagatesPanic(t *testing.T) {
	w := newWorld(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	w.Run(func(c *Comm) { panic("boom") })
}

func TestAllReduceSumMatchesSequential(t *testing.T) {
	ps := []int{1, 2, 3, 4, 7, 8, 16}
	ns := []int{0, 1, 2, 5, 64, 1000}
	if testing.Short() {
		ps = []int{1, 3, 8}
		ns = []int{0, 5, 64}
	}
	for _, p := range ps {
		for _, n := range ns {
			w := newWorld(p)
			rng := xrand.New(uint64(p*1000 + n))
			inputs := make([][]float32, p)
			want := make([]float32, n)
			for r := range inputs {
				inputs[r] = make([]float32, n)
				for i := range inputs[r] {
					inputs[r][i] = float32(rng.NormFloat64())
					want[i] += inputs[r][i]
				}
			}
			results := make([][]float32, p)
			w.Run(func(c *Comm) {
				buf := append([]float32(nil), inputs[c.Rank()]...)
				c.AllReduceSum(buf, "test")
				results[c.Rank()] = buf
			})
			for r := 0; r < p; r++ {
				for i := 0; i < n; i++ {
					if math.Abs(float64(results[r][i]-want[i])) > 1e-4 {
						t.Fatalf("p=%d n=%d rank %d elem %d: got %v want %v",
							p, n, r, i, results[r][i], want[i])
					}
				}
			}
		}
	}
}

func TestAllReduceSumCostReturned(t *testing.T) {
	w := newWorld(4)
	costs := make([]float64, 4)
	w.Run(func(c *Comm) {
		buf := make([]float32, 1024)
		costs[c.Rank()], _ = c.AllReduceSum(buf, "test")
	})
	want, _, _ := w.Cluster().RingAllReduceCost(4 * 1024)
	for r, got := range costs {
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("rank %d cost %v, want %v", r, got, want)
		}
	}
	if w.Cluster().Stats().Collectives != 1 {
		t.Fatalf("collectives = %d, want 1", w.Cluster().Stats().Collectives)
	}
}

func TestAllGatherRows(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6} {
		w := newWorld(p)
		const dim = 4
		gotIdx := make([][][]int32, p)
		gotVals := make([][][]float32, p)
		w.Run(func(c *Comm) {
			r := c.Rank()
			// Rank r contributes r+1 rows with recognizable contents.
			idx := make([]int32, r+1)
			vals := make([]float32, (r+1)*dim)
			for i := range idx {
				idx[i] = int32(10*r + i)
				for d := 0; d < dim; d++ {
					vals[i*dim+d] = float32(r) + float32(d)/10
				}
			}
			ai, av, _, _ := c.AllGatherRows(idx, vals, "test")
			gotIdx[r] = ai
			gotVals[r] = av
		})
		for r := 0; r < p; r++ {
			if len(gotIdx[r]) != p {
				t.Fatalf("rank %d got %d blocks", r, len(gotIdx[r]))
			}
			for src := 0; src < p; src++ {
				if len(gotIdx[r][src]) != src+1 {
					t.Fatalf("rank %d block %d has %d rows, want %d", r, src, len(gotIdx[r][src]), src+1)
				}
				for i, id := range gotIdx[r][src] {
					if id != int32(10*src+i) {
						t.Fatalf("rank %d block %d row %d idx %d", r, src, i, id)
					}
				}
				for i := 0; i <= src; i++ {
					for d := 0; d < dim; d++ {
						want := float32(src) + float32(d)/10
						if gotVals[r][src][i*dim+d] != want {
							t.Fatalf("rank %d block %d val mismatch", r, src)
						}
					}
				}
			}
		}
	}
}

func TestAllGatherRowsEmptyContribution(t *testing.T) {
	w := newWorld(3)
	w.Run(func(c *Comm) {
		var idx []int32
		var vals []float32
		if c.Rank() == 1 {
			idx = []int32{7}
			vals = []float32{1, 2}
		}
		ai, av, _, _ := c.AllGatherRows(idx, vals, "test")
		if len(ai[0]) != 0 || len(ai[2]) != 0 {
			t.Errorf("rank %d: empty blocks not empty", c.Rank())
		}
		if len(ai[1]) != 1 || ai[1][0] != 7 || len(av[1]) != 2 {
			t.Errorf("rank %d: block 1 corrupted: %v %v", c.Rank(), ai[1], av[1])
		}
	})
}

func TestAllGatherBytes(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		w := newWorld(p)
		got := make([][][]byte, p)
		w.Run(func(c *Comm) {
			payload := make([]byte, c.Rank()*3)
			for i := range payload {
				payload[i] = byte(c.Rank())
			}
			bs, _, _ := c.AllGatherBytes(payload, "test")
			got[c.Rank()] = bs
		})
		for r := 0; r < p; r++ {
			for src := 0; src < p; src++ {
				if len(got[r][src]) != src*3 {
					t.Fatalf("rank %d src %d len %d", r, src, len(got[r][src]))
				}
				for _, b := range got[r][src] {
					if b != byte(src) {
						t.Fatalf("rank %d src %d payload corrupted", r, src)
					}
				}
			}
		}
	}
}

// a2aBlock is what rank src sends rank dst in the all-to-all tests: a row
// count that differs per pair (zero for some), and per pair an id-only, a
// values-only or a full block.
func a2aBlock(src, dst int) (idx []int32, vals []float32) {
	n := (3*src + dst) % 4
	kind := (src + 2*dst) % 3
	if kind != 1 {
		idx = make([]int32, n)
		for i := range idx {
			idx[i] = int32(100*src + 10*dst + i)
		}
	}
	if kind != 0 {
		vals = make([]float32, 2*n)
		for i := range vals {
			vals[i] = float32(src) + float32(dst)/10 + float32(i)/100
		}
	}
	return idx, vals
}

// a2aSend builds rank r's outgoing blocks, own slot included (it must be
// ignored).
func a2aSend(r, p int) ([][]int32, [][]float32) {
	idx, vals := make([][]int32, p), make([][]float32, p)
	for d := range idx {
		idx[d], vals[d] = a2aBlock(r, d)
	}
	return idx, vals
}

func TestAllToAllRows(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		w := newWorld(p)
		gotIdx := make([][][]int32, p)
		gotVals := make([][][]float32, p)
		w.Run(func(c *Comm) {
			idx, vals := a2aSend(c.Rank(), p)
			gotIdx[c.Rank()], gotVals[c.Rank()] = make([][]int32, p), make([][]float32, p)
			if _, err := c.AllToAllRows(idx, vals, gotIdx[c.Rank()], gotVals[c.Rank()], "test"); err != nil {
				t.Errorf("p=%d rank %d: %v", p, c.Rank(), err)
			}
		})
		for r := 0; r < p; r++ {
			if len(gotIdx[r]) != p || len(gotVals[r]) != p {
				t.Fatalf("p=%d rank %d got %d/%d blocks", p, r, len(gotIdx[r]), len(gotVals[r]))
			}
			for s := 0; s < p; s++ {
				wantIdx, wantVals := a2aBlock(s, r)
				if s == r {
					wantIdx, wantVals = nil, nil // the own slot is not written
				}
				if !slices.Equal(gotIdx[r][s], wantIdx) || !slices.Equal(gotVals[r][s], wantVals) {
					t.Fatalf("p=%d rank %d from %d: got %v %v, want %v %v",
						p, r, s, gotIdx[r][s], gotVals[r][s], wantIdx, wantVals)
				}
			}
		}
	}
}

// TestAllToAllRowsChargesAgreedTotal: ranks send different volumes (rank 0
// everything, the rest nothing), yet every rank returns the same cost —
// (P−1)·α + (total/P)·β over the agreed total — and the ledger moves the
// total exactly once under the collective's tag.
func TestAllToAllRowsChargesAgreedTotal(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		w := newWorld(p)
		costs := make([]float64, p)
		w.Run(func(c *Comm) {
			idx, vals := make([][]int32, p), make([][]float32, p)
			if c.Rank() == 0 {
				for d := range idx {
					idx[d], vals[d] = make([]int32, d), make([]float32, 3*d)
				}
			}
			var err error
			costs[c.Rank()], err = c.AllToAllRows(idx, vals, nil, nil, "a2a")
			if err != nil {
				t.Errorf("p=%d rank %d: %v", p, c.Rank(), err)
			}
		})
		var total int64
		for d := 1; d < p; d++ {
			total += 4 * int64(d+3*d)
		}
		want := 0.0
		if p > 1 {
			par := w.Cluster().Params()
			want = float64(p-1)*par.Alpha + (float64(total)/float64(p))*par.Beta
		}
		for r, got := range costs {
			if got != want {
				t.Errorf("p=%d rank %d: cost %v, want %v", p, r, got, want)
			}
		}
		if got := w.Cluster().BytesByTag()["a2a"]; got != total {
			t.Errorf("p=%d: ledger moved %d bytes under the tag, want %d", p, got, total)
		}
	}
}

func TestAllReduceScalar(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8, 13} {
		w := newWorld(p)
		sums := make([]float64, p)
		maxs := make([]float64, p)
		mins := make([]float64, p)
		w.Run(func(c *Comm) {
			v := float64(c.Rank() + 1)
			sums[c.Rank()], _ = c.AllReduceScalar(v, OpSum)
			maxs[c.Rank()], _ = c.AllReduceScalar(v, OpMax)
			mins[c.Rank()], _ = c.AllReduceScalar(v, OpMin)
		})
		wantSum := float64(p*(p+1)) / 2
		for r := 0; r < p; r++ {
			if sums[r] != wantSum {
				t.Fatalf("p=%d rank %d sum %v want %v", p, r, sums[r], wantSum)
			}
			if maxs[r] != float64(p) {
				t.Fatalf("p=%d rank %d max %v", p, r, maxs[r])
			}
			if mins[r] != 1 {
				t.Fatalf("p=%d rank %d min %v", p, r, mins[r])
			}
		}
	}
}

func TestBarrierCharges(t *testing.T) {
	w := newWorld(4)
	w.Run(func(c *Comm) {
		c.Barrier()
		c.Barrier()
	})
	if got := w.Cluster().Stats().Collectives; got != 2 {
		t.Fatalf("collectives = %d", got)
	}
}

func TestClocksSynchronizedAfterCollective(t *testing.T) {
	w := newWorld(4)
	w.Run(func(c *Comm) {
		// Ranks do different amounts of local work, then sync.
		c.Cluster().AddSeconds(c.Rank(), float64(c.Rank()))
		buf := make([]float32, 128)
		c.AllReduceSum(buf, "test")
	})
	cl := w.Cluster()
	t0 := cl.Time(0)
	for r := 1; r < 4; r++ {
		if cl.Time(r) != t0 {
			t.Fatalf("clocks diverged: %v vs %v", cl.Time(r), t0)
		}
	}
	if t0 < 3 {
		t.Fatalf("clock %v did not include slowest rank's work", t0)
	}
}

func TestManySequentialCollectivesNoDeadlock(t *testing.T) {
	iters := 50
	if testing.Short() {
		iters = 10
	}
	w := newWorld(8)
	watchdog(t, "sequential collectives", 30*time.Second, func() {
		w.Run(func(c *Comm) {
			buf := make([]float32, 33)
			for i := 0; i < iters; i++ {
				c.AllReduceSum(buf, "a")
				_, _, _, _ = c.AllGatherRows([]int32{int32(c.Rank())}, []float32{1}, "b")
				c.AllReduceScalar(1, OpSum)
				c.Barrier()
			}
		})
	})
	if got := w.Cluster().Stats().Collectives; got != int64(4*iters) {
		t.Fatalf("collectives = %d, want %d", got, 4*iters)
	}
}

// Property: all-reduce equals sequential sum for arbitrary inputs.
func TestQuickAllReduce(t *testing.T) {
	f := func(seed uint64, pRaw, nRaw uint8) bool {
		p := int(pRaw%8) + 1
		n := int(nRaw % 65)
		w := newWorld(p)
		rng := xrand.New(seed)
		inputs := make([][]float32, p)
		want := make([]float32, n)
		for r := range inputs {
			inputs[r] = make([]float32, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.Float32() - 0.5
				want[i] += inputs[r][i]
			}
		}
		ok := true
		var mu sync.Mutex
		w.Run(func(c *Comm) {
			buf := append([]float32(nil), inputs[c.Rank()]...)
			c.AllReduceSum(buf, "q")
			for i := range buf {
				if math.Abs(float64(buf[i]-want[i])) > 1e-4 {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
		})
		return ok
	}
	count := 30
	if testing.Short() {
		count = 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllReduceSum8x4096(b *testing.B) {
	w := newWorld(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			buf := make([]float32, 4096)
			c.AllReduceSum(buf, "bench")
		})
	}
}

func BenchmarkAllGatherRows8(b *testing.B) {
	w := newWorld(8)
	idx := make([]int32, 256)
	vals := make([]float32, 256*16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			c.AllGatherRows(idx, vals, "bench")
		})
	}
}

// TestRandomCollectiveSequences stress-tests mixed collective sequences on
// random world sizes: no deadlock, and statistics identical across reruns
// of the same sequence (determinism independent of goroutine scheduling).
func TestRandomCollectiveSequences(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		rng := xrand.New(uint64(trial))
		p := rng.Intn(7) + 2
		nOps := rng.Intn(12) + 4
		ops := make([]int, nOps)
		for i := range ops {
			ops[i] = rng.Intn(6)
		}
		run := func() (float64, int64) {
			w := newWorld(p)
			watchdog(t, "random collective sequence", 30*time.Second, func() {
				w.Run(func(c *Comm) {
					buf := make([]float32, 65)
					for _, op := range ops {
						switch op {
						case 0:
							c.AllReduceSum(buf, "s")
						case 1:
							c.AllGatherRows([]int32{int32(c.Rank())}, []float32{1, 2}, "s")
						case 2:
							c.Barrier()
						case 3:
							c.AllReduceScalar(float64(c.Rank()), OpMax)
						case 4:
							c.AllGatherBytes([]byte{byte(c.Rank())}, "s")
						case 5:
							idx, vals := a2aSend(c.Rank(), p)
							c.AllToAllRows(idx, vals, nil, nil, "s")
						}
					}
				})
			})
			st := w.Cluster().Stats()
			return st.CommSeconds, st.BytesMoved
		}
		c1, b1 := run()
		c2, b2 := run()
		if c1 != c2 || b1 != b2 {
			t.Fatalf("trial %d (p=%d): nondeterministic stats (%v,%d) vs (%v,%d)",
				trial, p, c1, b1, c2, b2)
		}
	}
}
