package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"kgedist/internal/eval"
	"kgedist/internal/metrics"
)

// PredictQuery is one completion request: fix two slots of a triple, rank
// candidates for the third.
type PredictQuery struct {
	// Side is the slot being completed: "head" or "tail".
	Side string
	// H, R, T are the fixed ids. H is ignored when Side == "head", T when
	// Side == "tail".
	H, R, T int
	// K is the number of completions wanted.
	K int
	// Filtered skips candidates that are known facts in the filter index.
	Filtered bool
	// Ctx is the request's context: once it is done, the sweep stops
	// scoring tiles for the query and answers it with Ctx.Err(). A nil Ctx
	// is never cancelled.
	Ctx context.Context
}

// PredictResult is the outcome of one batched query.
type PredictResult struct {
	Completions []eval.ScoredEntity
	Err         error
	// gen is the generation the batch ran on: the only cache a response
	// built from Completions may be stored in.
	gen *state
}

// ErrBatcherStopped is returned by Submit after Stop.
var ErrBatcherStopped = errors.New("serve: batcher stopped")

// Batcher coalesces concurrent predict queries into shared entity-table
// sweeps. The dispatcher takes whatever is queued, up to maxBatch, and runs
// it as one exec call that walks the entity table once for all of them; it
// never waits for company. Batches grow because queries arrive while the
// previous batch executes, so batch size adapts to pressure and a lone
// query on an idle executor runs at once.
type Batcher struct {
	reqs    chan *batchReq
	exec    func([]PredictQuery) []PredictResult
	sizes   *metrics.Histogram
	quit    chan struct{}
	done    chan struct{}
	mu      sync.RWMutex // guards stopped against in-flight Submit sends
	stopped bool

	// Dispatcher-goroutine-only scratch, reused across batches so the
	// dispatch path allocates nothing per batch. batchBuf's capacity is
	// the maximum batch size.
	batchBuf []*batchReq
	qsBuf    []PredictQuery
}

type batchReq struct {
	q   PredictQuery
	out chan PredictResult
}

// NewBatcher starts a batcher. exec receives 1..maxBatch queries and must
// return exactly one result per query, in order. The query slice is
// batcher-owned scratch, valid only for the duration of the call — exec
// must not retain it. maxBatch is clamped to at least 1. The duration is a
// former collection window; it is accepted and ignored.
func NewBatcher(maxBatch int, _ time.Duration, sizes *metrics.Histogram, exec func([]PredictQuery) []PredictResult) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	b := &Batcher{
		reqs:     make(chan *batchReq, 4*maxBatch),
		exec:     exec,
		sizes:    sizes,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		batchBuf: make([]*batchReq, 0, maxBatch),
	}
	go b.dispatch()
	return b
}

// Submit enqueues one query and blocks until its batch executes. While the
// queue is full it also watches q.Ctx: once that is done, the query is
// answered with Ctx.Err() without being queued. A nil Ctx waits for room.
func (b *Batcher) Submit(q PredictQuery) PredictResult {
	r := &batchReq{q: q, out: make(chan PredictResult, 1)}
	var cancel <-chan struct{}
	if q.Ctx != nil {
		cancel = q.Ctx.Done()
	}
	b.mu.RLock()
	if b.stopped {
		b.mu.RUnlock()
		return PredictResult{Err: ErrBatcherStopped}
	}
	select {
	case b.reqs <- r:
	case <-cancel:
		b.mu.RUnlock()
		return PredictResult{Err: q.Ctx.Err()}
	}
	b.mu.RUnlock()
	return <-r.out
}

// Stop drains pending queries, waits for the dispatcher to exit, and makes
// further Submit calls fail fast. Safe to call more than once.
func (b *Batcher) Stop() {
	b.mu.Lock()
	already := b.stopped
	b.stopped = true
	b.mu.Unlock()
	if !already {
		close(b.quit)
	}
	<-b.done
}

// dispatch is the batcher's single consumer goroutine: it coalesces queued
// queries into batches and executes them, recycling the request and query
// buffers across iterations so the steady-state serve path does not allocate
// (TestBatcherSubmitAllocs).
func (b *Batcher) dispatch() {
	defer close(b.done)
	for {
		var first *batchReq
		select {
		case first = <-b.reqs:
		case <-b.quit:
			// Stop holds the write lock until no Submit send is in
			// flight, so everything ever enqueued is in the buffer now.
			b.drain()
			return
		}
		b.run(b.fill(append(b.batchBuf[:0], first)))
	}
}

// fill appends what is queued right now to batch, up to its capacity,
// without blocking.
func (b *Batcher) fill(batch []*batchReq) []*batchReq {
	for len(batch) < cap(batch) {
		select {
		case r := <-b.reqs:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// drain executes whatever is left in the queue after Stop, in maxBatch
// chunks, so no Submit is left blocked.
func (b *Batcher) drain() {
	for {
		batch := b.fill(b.batchBuf[:0])
		if len(batch) == 0 {
			return
		}
		b.run(batch)
	}
}

func (b *Batcher) run(batch []*batchReq) {
	if b.sizes != nil {
		b.sizes.Observe(float64(len(batch)))
	}
	if cap(b.qsBuf) < len(batch) {
		b.qsBuf = make([]PredictQuery, len(batch))
	}
	qs := b.qsBuf[:len(batch)]
	for i, r := range batch {
		qs[i] = r.q
	}
	outs := b.exec(qs)
	for i, r := range batch {
		if i < len(outs) {
			r.out <- outs[i]
		} else {
			r.out <- PredictResult{Err: errors.New("serve: batch exec returned short result set")}
		}
		batch[i] = nil // drop the request reference; batch is recycled
	}
}
