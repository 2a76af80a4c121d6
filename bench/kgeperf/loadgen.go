package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is what one generated operation reports back.
type opResult struct {
	ok    bool
	bytes int // request plus response body bytes
}

// phaseStats is one load phase. Latencies are milliseconds from the moment
// a request was DUE, not from when a worker got round to sending it, so the
// wait a stall imposes on later requests is counted; a failed request
// carries +Inf and so misses every limit and drags the percentiles.
type phaseStats struct {
	name    string
	rate    float64 // target arrivals per second; 0 for a closed loop
	sent    int
	ok      int
	failed  int
	elapsed float64   // seconds
	latMS   []float64 // per request, from due time (closed loop: from send)
	lateMS  []float64 // per request, how late the send ran behind its due time
	bytes   int64
}

func (p *phaseStats) percentile(q float64) float64 { return quantile(p.latMS, q) }

// merge pools another round of the same phase into p.
func (p *phaseStats) merge(o *phaseStats) {
	p.sent += o.sent
	p.ok += o.ok
	p.failed += o.failed
	p.elapsed += o.elapsed
	p.latMS = append(p.latMS, o.latMS...)
	p.lateMS = append(p.lateMS, o.lateMS...)
	p.bytes += o.bytes
}

// okWithin is the share of requests SENT that answered correctly within
// limitMS of their due time.
func (p *phaseStats) okWithin(limitMS float64) float64 {
	if p.sent == 0 {
		return 0
	}
	n := 0
	for _, l := range p.latMS {
		if l <= limitMS {
			n++
		}
	}
	return float64(n) / float64(p.sent)
}

func (p *phaseStats) record(mu *sync.Mutex, res opResult, latMS, lateMS float64) {
	if !res.ok {
		latMS = math.Inf(1)
	}
	mu.Lock()
	p.sent++
	if res.ok {
		p.ok++
	} else {
		p.failed++
	}
	p.latMS = append(p.latMS, latMS)
	p.lateMS = append(p.lateMS, lateMS)
	p.bytes += int64(res.bytes)
	mu.Unlock()
}

// openLoop sends total = rate*dur operations on a fixed schedule: operation
// i is due at t0 + i/rate whatever happened to the ones before it. There is
// no ticker to drop ticks: nworkers workers each claim the next index, sleep
// until it is due (or send at once when already late) and run do(first+i,
// worker). after, when non-nil, sees every operation's send and completion
// times (the traced run records a span there).
func openLoop(name string, rate float64, dur time.Duration, nworkers, first int,
	do func(i, worker int) opResult, after func(worker int, sent, done time.Time)) *phaseStats {
	ps := &phaseStats{name: name, rate: rate}
	total := int(rate * dur.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now().Add(2 * time.Millisecond)
	for w := 0; w < nworkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				res := do(first+i, w)
				done := time.Now()
				late := sent.Sub(due)
				if late < 0 {
					late = 0
				}
				ps.record(&mu, res, ms(done.Sub(due)), ms(late))
				if after != nil {
					after(w, sent, done)
				}
			}
		}(w)
	}
	wg.Wait()
	ps.elapsed = time.Since(t0).Seconds()
	return ps
}

// closedLoop runs nworkers clients for dur; each sends its next operation
// only after the previous one completed, so a slow system receives less
// load. Throughput is ok / elapsed.
func closedLoop(name string, dur time.Duration, nworkers, first int,
	do func(i, worker int) opResult, after func(worker int, sent, done time.Time)) *phaseStats {
	ps := &phaseStats{name: name}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for w := 0; w < nworkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				res := do(first+i, w)
				done := time.Now()
				ps.record(&mu, res, ms(done.Sub(sent)), 0)
				if after != nil {
					after(w, sent, done)
				}
			}
		}(w)
	}
	wg.Wait()
	ps.elapsed = time.Since(t0).Seconds()
	return ps
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
