package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kgedist/internal/eval"
	"kgedist/internal/metrics"
)

// echoExec returns each query's K as a single fake completion, recording
// batch sizes.
func echoExec(calls *atomic.Int64, maxSeen *atomic.Int64) func([]PredictQuery) []PredictResult {
	return func(qs []PredictQuery) []PredictResult {
		calls.Add(1)
		for {
			cur := maxSeen.Load()
			if int64(len(qs)) <= cur || maxSeen.CompareAndSwap(cur, int64(len(qs))) {
				break
			}
		}
		outs := make([]PredictResult, len(qs))
		for i, q := range qs {
			outs[i] = PredictResult{Completions: []eval.ScoredEntity{{Entity: int32(q.K), Score: float32(q.K)}}}
		}
		return outs
	}
}

func TestBatcherDeliversPerRequestResults(t *testing.T) {
	var calls, maxSeen atomic.Int64
	b := NewBatcher(8, time.Millisecond, nil, echoExec(&calls, &maxSeen))
	defer b.Stop()
	var wg sync.WaitGroup
	for i := 1; i <= 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := b.Submit(PredictQuery{Side: "tail", K: i})
			if res.Err != nil {
				t.Errorf("submit %d: %v", i, res.Err)
				return
			}
			if len(res.Completions) != 1 || int(res.Completions[0].Entity) != i {
				t.Errorf("submit %d got %v", i, res.Completions)
			}
		}(i)
	}
	wg.Wait()
	if calls.Load() == 0 {
		t.Fatal("exec never called")
	}
}

// TestBatcherCoalesces pins the only way batches form: the first query runs
// alone at once, and everything that queues up while its exec is blocked
// leaves together as the next batch.
func TestBatcherCoalesces(t *testing.T) {
	var calls, maxSeen atomic.Int64
	sizes := metrics.NewHistogram(metrics.SizeBuckets(64)...)
	echo := echoExec(&calls, &maxSeen)
	entered := make(chan int, 8) // batch sizes, in exec order
	release := make(chan struct{})
	exec := func(qs []PredictQuery) []PredictResult {
		entered <- len(qs)
		<-release
		return echo(qs)
	}
	const queued = 7
	b := NewBatcher(16, time.Hour, sizes, exec)
	defer b.Stop()
	var wg sync.WaitGroup
	submit := func(k int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := b.Submit(PredictQuery{Side: "tail", K: k}); res.Err != nil || int(res.Completions[0].Entity) != k {
				t.Errorf("submit %d: %+v", k, res)
			}
		}()
	}
	submit(1)
	if n := <-entered; n != 1 {
		t.Fatalf("a lone query on an idle executor ran in a batch of %d", n)
	}
	for k := 2; k < 2+queued; k++ {
		submit(k)
	}
	for len(b.reqs) < queued { // all seven are queued behind the blocked exec
		runtime.Gosched()
	}
	release <- struct{}{}
	if n := <-entered; n != queued {
		t.Fatalf("%d queries queued behind a running batch left as a batch of %d", queued, n)
	}
	release <- struct{}{}
	wg.Wait()
	if s := sizes.Snapshot(); s.Count != 2 || s.Sum != 1+queued {
		t.Fatalf("batch histogram: %d batches, %g queries; want 2 and %d", s.Count, s.Sum, 1+queued)
	}
}

func TestBatcherRespectsMaxBatch(t *testing.T) {
	var calls, maxSeen atomic.Int64
	b := NewBatcher(4, 50*time.Millisecond, nil, echoExec(&calls, &maxSeen))
	defer b.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Submit(PredictQuery{Side: "tail", K: i + 1})
		}(i)
	}
	wg.Wait()
	if maxSeen.Load() > 4 {
		t.Fatalf("batch of %d exceeded maxBatch 4", maxSeen.Load())
	}
}

func TestBatcherStopDrainsAndRejects(t *testing.T) {
	var calls, maxSeen atomic.Int64
	b := NewBatcher(4, time.Millisecond, nil, echoExec(&calls, &maxSeen))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := b.Submit(PredictQuery{Side: "tail", K: i + 1})
			// Either served before the drain finished or rejected cleanly;
			// never a hang (the test would time out) or a lost result.
			if res.Err == nil && len(res.Completions) != 1 {
				t.Errorf("lost result: %+v", res)
			}
		}(i)
	}
	b.Stop()
	wg.Wait()
	if res := b.Submit(PredictQuery{Side: "tail", K: 1}); res.Err != ErrBatcherStopped {
		t.Fatalf("post-stop submit: %v", res.Err)
	}
	b.Stop() // idempotent
}

// TestBatcherSubmitCancelledWhileQueueFull: a query whose context is done
// while the queue is full returns its context's error at once instead of
// waiting for room, and the queued queries are still answered.
func TestBatcherSubmitCancelledWhileQueueFull(t *testing.T) {
	release := make(chan struct{})
	b := NewBatcher(1, 0, nil, func(qs []PredictQuery) []PredictResult {
		<-release
		return make([]PredictResult, len(qs))
	})
	var wg sync.WaitGroup
	defer func() {
		close(release)
		wg.Wait()
		b.Stop()
	}()
	// One query holds the dispatcher in exec; the rest fill the queue.
	for range 1 + cap(b.reqs) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := b.Submit(PredictQuery{Side: "tail", K: 1}); res.Err != nil {
				t.Errorf("queued query: %v", res.Err)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); len(b.reqs) < cap(b.reqs); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d of %d after 10 s", len(b.reqs), cap(b.reqs))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := make(chan PredictResult, 1)
	go func() { got <- b.Submit(PredictQuery{Side: "tail", K: 1, Ctx: ctx}) }()
	select {
	case res := <-got:
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("cancelled submit on a full queue: err %v, want context.Canceled", res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled submit still blocked on a full queue after 10 s")
	}
}

// TestBatcherSubmitAllocs pins what one Submit costs the heap, the
// dispatcher's share included: the request, its reply channel and that
// channel's buffer. The batch and query slices are the dispatcher's
// recycled scratch; making either per dispatch fails this test.
func TestBatcherSubmitAllocs(t *testing.T) {
	results := make([]PredictResult, 8)
	b := NewBatcher(8, 0, nil, func(qs []PredictQuery) []PredictResult { return results[:len(qs)] })
	defer b.Stop()
	q := PredictQuery{Side: "tail", K: 1}
	if allocs := testing.AllocsPerRun(200, func() { b.Submit(q) }); allocs > 3 {
		t.Fatalf("Submit allocates %.1f times, want at most 3", allocs)
	}
}
