package mpi

import (
	"runtime"
	"runtime/debug"
	"testing"

	"kgedist/internal/grad"
)

// TestCollectiveSteadyStateAllocs pins what the training step's collectives
// allocate once warm on the channel world, per rank and call. Each case runs
// its collective a few times and then many times inside one World.RunErr;
// the Mallocs difference over the call difference cancels the run's own
// goroutines and bookkeeping. The ring staging and the compressed hops ride
// the pool and AllToAllRows fills result slices its caller owns, so none of
// the three allocates. The bounds leave under half an
// allocation of slack for pool misses, so one planted allocation per call
// fails them. TestProcessAllReduceSteadyStateAllocs covers TCP.
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	const p, few, many = 4, 8, 72
	cases := []struct {
		name string
		max  float64
		// body returns rank r's loop of calls collectives.
		body func(r int) func(c *Comm, calls int) error
	}{
		{"AllReduceSum", 0.25, func(r int) func(*Comm, int) error {
			buf := make([]float32, 4096)
			return func(c *Comm, calls int) error {
				for range calls {
					if _, err := c.AllReduceSum(buf, "allocs"); err != nil {
						return err
					}
				}
				return nil
			}
		}},
		{"AllToAllRows", 0.25, func(r int) func(*Comm, int) error {
			idx, vals := a2aSend(r, p)
			fromIdx, fromVals := make([][]int32, p), make([][]float32, p)
			return func(c *Comm, calls int) error {
				for range calls {
					if _, err := c.AllToAllRows(idx, vals, fromIdx, fromVals, "allocs"); err != nil {
						return err
					}
					// A received block belongs to its reader: send it on,
					// as the partitioned push recycles its blocks.
					copy(idx, fromIdx)
					copy(vals, fromVals)
				}
				return nil
			}
		}},
		{"AllReduceEncoded", 0.25, func(r int) func(*Comm, int) error {
			const rows, width = 256, 32
			own, _ := encGrad(r, rows, width, grad.OneBitMax, 1)
			var mg grad.Merger
			return func(c *Comm, calls int) error {
				for range calls {
					if _, _, err := c.AllReduceEncoded(own, rows, &mg, nil, "allocs"); err != nil {
						return err
					}
				}
				return nil
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(p)
			bodies := make([]func(*Comm, int) error, p)
			for r := range bodies {
				bodies[r] = tc.body(r)
			}
			mallocs := func(calls int) uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := w.RunErr(func(c *Comm) error { return bodies[c.Rank()](c, calls) }); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			// A collection empties the pool; that is GC timing, not the
			// steady state pinned here.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			mallocs(few) // warm the pool and every rank's scratch
			mf := mallocs(few)
			mm := mallocs(many)
			perCall := (float64(mm) - float64(mf)) / float64(p*(many-few))
			t.Logf("%.3f allocations per rank and call", perCall)
			if perCall > tc.max {
				t.Errorf("steady-state %s allocates %.3f times per rank and call, want ≤ %v", tc.name, perCall, tc.max)
			}
		})
	}
}
