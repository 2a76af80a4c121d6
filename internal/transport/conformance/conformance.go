// Package conformance is the executable contract of transport.Endpoint: a
// table of behavioral tests every backend must pass — ordering, payload
// framing, concurrent pairwise traffic, rendezvous barrier semantics, abort
// unblocking blocked operations, and watchdog expiry. The channel and TCP
// backends both run this suite from their side of the fence, so their
// semantics cannot drift apart: a message that would reorder, a Recv that
// would hang through an abort, or a watchdog that never fires breaks the
// suite before it can break a training run.
package conformance

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kgedist/internal/transport"
)

// Factory builds a fully connected in-process world of p endpoints, ready
// for traffic. The suite closes every endpoint at the end of each subtest;
// the factory only needs t.Cleanup for extra resources (listeners etc.).
type Factory func(t *testing.T, p int) []transport.Endpoint

// suiteTimeout bounds every subtest: a conformance failure must be a loud
// goroutine dump, not a silent package-level test deadline.
const suiteTimeout = 60 * time.Second

// Run executes the full conformance suite against the backend.
func Run(t *testing.T, factory Factory) {
	t.Run("PointToPointOrdering", func(t *testing.T) { testOrdering(t, factory) })
	t.Run("PayloadFraming", func(t *testing.T) { testFraming(t, factory) })
	t.Run("ConcurrentPairs", func(t *testing.T) { testConcurrentPairs(t, factory) })
	t.Run("RendezvousBarrier", func(t *testing.T) { testRendezvousBarrier(t, factory) })
	t.Run("AbortUnblocksRecv", func(t *testing.T) { testAbortUnblocksRecv(t, factory) })
	t.Run("AbortUnblocksRendezvous", func(t *testing.T) { testAbortUnblocksRendezvous(t, factory) })
	t.Run("WatchdogExpiry", func(t *testing.T) { testWatchdogExpiry(t, factory) })
	t.Run("FailureVerdict", func(t *testing.T) { testFailureVerdict(t, factory) })
	t.Run("ShrinkAfterRankZeroDies", func(t *testing.T) { testShrinkAfterRankZeroDies(t, factory) })
}

// watchdog fails the test with a goroutine dump if fn does not return in
// time — the failure mode under test here is precisely "something hangs".
func watchdog(t *testing.T, name string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(suiteTimeout):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("%s: hung for %v; goroutine dump:\n%s", name, suiteTimeout, buf[:n])
	}
}

// closeAll tears the world down inside the watchdog: Close must neither
// hang nor leave peers stuck, even right after failures.
func closeAll(t *testing.T, eps []transport.Endpoint) {
	t.Helper()
	watchdog(t, "close", func() {
		var wg sync.WaitGroup
		for _, ep := range eps {
			wg.Add(1)
			go func(ep transport.Endpoint) {
				defer wg.Done()
				if err := ep.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}(ep)
		}
		wg.Wait()
	})
}

// testOrdering: messages between one (src, dst) pair are delivered in send
// order, payloads and sequence numbers intact.
func testOrdering(t *testing.T, factory Factory) {
	eps := factory(t, 2)
	defer closeAll(t, eps)
	const n = 200
	watchdog(t, "ordering", func() {
		go func() {
			for i := 0; i < n; i++ {
				m := transport.Message{Seq: uint64(i), F64: float64(i) + 0.5}
				if err := eps[0].Send(1, m); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
			}
		}()
		for i := 0; i < n; i++ {
			m, err := eps[1].Recv(0, 10*time.Second)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if m.Seq != uint64(i) || m.F64 != float64(i)+0.5 { //kgelint:ignore floateq wire round-trip must be bit-exact
				t.Fatalf("recv %d: got seq %d f64 %v, want %d %v", i, m.Seq, m.F64, i, float64(i)+0.5)
			}
		}
	})
}

// testFraming: every payload shape — each field type, large slices, mixed
// messages — round-trips with exact values.
func testFraming(t *testing.T, factory Factory) {
	eps := factory(t, 2)
	defer closeAll(t, eps)
	bigF32 := make([]float32, 1<<16)
	for i := range bigF32 {
		bigF32[i] = float32(i) * 0.5
	}
	bigRaw := make([]byte, 1<<15)
	for i := range bigRaw {
		bigRaw[i] = byte(i)
	}
	msgs := []transport.Message{
		{Seq: 1, F32: []float32{0.5, -1.25, 3.1415927, 1e-38, -1e38}},
		{Seq: 2, I32: []int32{0, -1, 1 << 30, -(1 << 30), 42}},
		{Seq: 3, Raw: []byte("length-prefixed, CRC-checked")},
		{Seq: 4, F64: -1234.5678},
		{Seq: 5, F32: bigF32},
		{Seq: 6, Raw: bigRaw},
		{Seq: 7, F32: []float32{1}, F64: 2.5},
		{Seq: 8},
	}
	watchdog(t, "framing", func() {
		go func() {
			for i, m := range msgs {
				if err := eps[0].Send(1, m); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
			}
		}()
		for i, want := range msgs {
			got, err := eps[1].Recv(0, 10*time.Second)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if got.Seq != want.Seq || got.F64 != want.F64 { //kgelint:ignore floateq wire round-trip must be bit-exact
				t.Fatalf("msg %d: seq/f64 mismatch: got %d/%v want %d/%v", i, got.Seq, got.F64, want.Seq, want.F64)
			}
			if len(got.F32) != len(want.F32) || len(got.I32) != len(want.I32) || len(got.Raw) != len(want.Raw) {
				t.Fatalf("msg %d: length mismatch: got %d/%d/%d want %d/%d/%d", i,
					len(got.F32), len(got.I32), len(got.Raw), len(want.F32), len(want.I32), len(want.Raw))
			}
			for j := range want.F32 {
				if got.F32[j] != want.F32[j] { //kgelint:ignore floateq wire round-trip must be bit-exact
					t.Fatalf("msg %d: F32[%d] = %v, want %v", i, j, got.F32[j], want.F32[j])
				}
			}
			for j := range want.I32 {
				if got.I32[j] != want.I32[j] {
					t.Fatalf("msg %d: I32[%d] = %v, want %v", i, j, got.I32[j], want.I32[j])
				}
			}
			for j := range want.Raw {
				if got.Raw[j] != want.Raw[j] {
					t.Fatalf("msg %d: Raw[%d] = %v, want %v", i, j, got.Raw[j], want.Raw[j])
				}
			}
		}
	})
}

// testConcurrentPairs: all ordered pairs exchange streams concurrently;
// per-pair FIFO must hold under full-mesh contention.
func testConcurrentPairs(t *testing.T, factory Factory) {
	const p, k = 4, 25
	eps := factory(t, p)
	defer closeAll(t, eps)
	tag := func(src, dst, i int) float64 { return float64(src*1_000_000 + dst*10_000 + i) }
	watchdog(t, "concurrent pairs", func() {
		var wg sync.WaitGroup
		for me := 0; me < p; me++ {
			for peer := 0; peer < p; peer++ {
				if peer == me {
					continue
				}
				wg.Add(2)
				go func(me, peer int) { // sender me -> peer
					defer wg.Done()
					for i := 0; i < k; i++ {
						if err := eps[me].Send(peer, transport.Message{Seq: uint64(i), F64: tag(me, peer, i)}); err != nil {
							t.Errorf("send %d->%d #%d: %v", me, peer, i, err)
							return
						}
					}
				}(me, peer)
				go func(me, peer int) { // receiver me <- peer
					defer wg.Done()
					for i := 0; i < k; i++ {
						m, err := eps[me].Recv(peer, 10*time.Second)
						if err != nil {
							t.Errorf("recv %d<-%d #%d: %v", me, peer, i, err)
							return
						}
						if m.F64 != tag(peer, me, i) { //kgelint:ignore floateq tags are small integers, exact by construction
							t.Errorf("recv %d<-%d #%d: got tag %v, want %v", me, peer, i, m.F64, tag(peer, me, i))
							return
						}
					}
				}(me, peer)
			}
		}
		wg.Wait()
	})
}

// testRendezvousBarrier: no participant may clear rendezvous r before every
// participant has entered it, across many reuses of the same endpoints.
func testRendezvousBarrier(t *testing.T, factory Factory) {
	const p, rounds = 3, 50
	eps := factory(t, p)
	defer closeAll(t, eps)
	arrived := make([]int32, rounds)
	watchdog(t, "rendezvous barrier", func() {
		var wg sync.WaitGroup
		for id := 0; id < p; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					atomic.AddInt32(&arrived[r], 1)
					if err := eps[id].Rendezvous(nil); err != nil {
						t.Errorf("rank %d round %d: %v", id, r, err)
						return
					}
					if got := atomic.LoadInt32(&arrived[r]); got != p {
						t.Errorf("rank %d released from round %d with %d/%d arrivals", id, r, got, p)
						return
					}
				}
			}(id)
		}
		wg.Wait()
	})
}

// testAbortUnblocksRecv: a Recv blocked with no watchdog must return the
// typed failure error the moment any rank is declared dead.
func testAbortUnblocksRecv(t *testing.T, factory Factory) {
	eps := factory(t, 2)
	defer closeAll(t, eps)
	watchdog(t, "abort unblocks recv", func() {
		errCh := make(chan error, 1)
		go func() {
			_, err := eps[1].Recv(0, 0)
			errCh <- err
		}()
		time.Sleep(50 * time.Millisecond) // let the Recv block
		eps[1].FailRank(0)
		err := <-errCh
		var rfe *transport.RankFailedError
		if !errors.As(err, &rfe) {
			t.Fatalf("blocked recv returned %v, want *RankFailedError", err)
		}
		if len(rfe.Ranks) == 0 || rfe.Ranks[0] != 0 {
			t.Fatalf("dead set %v, want [0]", rfe.Ranks)
		}
	})
}

// testAbortUnblocksRendezvous: a rank waiting at the barrier must be
// released with the failure error when a peer is declared dead — the
// classic "everyone else crashed at the collective" hang.
func testAbortUnblocksRendezvous(t *testing.T, factory Factory) {
	eps := factory(t, 2)
	defer closeAll(t, eps)
	watchdog(t, "abort unblocks rendezvous", func() {
		errCh := make(chan error, 1)
		go func() {
			errCh <- eps[0].Rendezvous(nil)
		}()
		time.Sleep(50 * time.Millisecond)
		eps[0].FailRank(1) // rank 1 never arrives; declare it dead
		err := <-errCh
		var rfe *transport.RankFailedError
		if !errors.As(err, &rfe) {
			t.Fatalf("blocked rendezvous returned %v, want *RankFailedError", err)
		}
	})
}

// testWatchdogExpiry: a Recv deadline with a healthy but silent peer
// returns ErrRecvTimeout (and nothing else), leaving the verdict to mpi.
func testWatchdogExpiry(t *testing.T, factory Factory) {
	eps := factory(t, 2)
	defer closeAll(t, eps)
	watchdog(t, "watchdog expiry", func() {
		start := time.Now()
		_, err := eps[0].Recv(1, 100*time.Millisecond)
		if !errors.Is(err, transport.ErrRecvTimeout) {
			t.Fatalf("got %v, want ErrRecvTimeout", err)
		}
		if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
			t.Fatalf("watchdog fired after %v, before the %v deadline", elapsed, 100*time.Millisecond)
		}
	})
}

// testFailureVerdict: after a failure, Failed/Err report the dead set, new
// blocked operations fail instead of waiting forever, and the verdict stays
// one dead rank on every endpoint — the victim's included: it learns it was
// convicted and must not convict its accusers in return.
func testFailureVerdict(t *testing.T, factory Factory) {
	eps := factory(t, 3)
	defer closeAll(t, eps)
	watchdog(t, "failure verdict", func() {
		eps[0].FailRank(2)
		var rfe *transport.RankFailedError
		if err := eps[0].Err(); !errors.As(err, &rfe) {
			t.Fatalf("Err() = %v, want *RankFailedError", err)
		} else if fmt.Sprint(rfe.Ranks) != "[2]" {
			t.Fatalf("Err() names %v, want [2]", rfe.Ranks)
		}
		// A blocked receive is how each rank learns the verdict: it returns
		// once the abort has reached that endpoint.
		for r, ep := range eps {
			if _, err := ep.Recv((r+1)%3, 0); !errors.As(err, &rfe) {
				t.Fatalf("rank %d: recv after failure returned %v, want *RankFailedError", r, err)
			}
		}
		for r, ep := range eps {
			if got := ep.Failed(); len(got) != 1 || got[0] != 2 {
				t.Fatalf("rank %d: Failed() = %v, want [2]", r, got)
			}
		}
	})
}

// testShrinkAfterRankZeroDies: losing rank 0 shrinks like losing any other
// rank. The survivors are renumbered densely into a world that moves
// messages and passes barriers. A backend that re-meshes (transport.Shrinker,
// the TCP fabric, whose first generation rank 0 leads) shrinks its own
// endpoints; any other is rebuilt over the survivors, as mpi.World.Shrink
// rebuilds a channel world.
func testShrinkAfterRankZeroDies(t *testing.T, factory Factory) {
	const p = 3
	eps := factory(t, p)
	defer closeAll(t, eps)
	watchdog(t, "shrink after rank 0 dies", func() {
		succ := make([]transport.Endpoint, p-1)
		if _, ok := eps[1].(transport.Shrinker); ok {
			errs := make([]error, p-1)
			var wg sync.WaitGroup
			for i, ep := range eps[1:] {
				wg.Add(1)
				go func(i int, ep transport.Endpoint) {
					defer wg.Done()
					ep.FailRank(0)
					succ[i], errs[i] = ep.(transport.Shrinker).Shrink([]int{0})
				}(i, ep)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: shrink: %v", i+1, err)
				}
			}
		} else {
			succ = factory(t, p-1)
		}
		defer closeAll(t, succ)
		for r, ep := range succ {
			if ep.Rank() != r || ep.Size() != p-1 {
				t.Fatalf("survivor %d: rank %d of %d, want %d of %d", r, ep.Rank(), ep.Size(), r, p-1)
			}
		}
		if err := succ[1].Send(0, transport.Message{Seq: 1, F64: 0.25}); err != nil {
			t.Fatalf("send after shrink: %v", err)
		}
		if m, err := succ[0].Recv(1, 10*time.Second); err != nil || m.Seq != 1 || m.F64 != 0.25 { //kgelint:ignore floateq wire round-trip must be bit-exact
			t.Fatalf("recv after shrink: %+v, %v", m, err)
		}
		var wg sync.WaitGroup
		for _, ep := range succ {
			wg.Add(1)
			go func(ep transport.Endpoint) {
				defer wg.Done()
				if err := ep.Rendezvous(nil); err != nil {
					t.Errorf("rank %d: rendezvous after shrink: %v", ep.Rank(), err)
				}
			}(ep)
		}
		wg.Wait()
	})
}
