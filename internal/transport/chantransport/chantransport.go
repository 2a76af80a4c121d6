// Package chantransport is the in-process channel backend of the transport
// interface: every rank is a goroutine, point-to-point links are buffered Go
// channels carrying payload slices by reference, and the rendezvous is a
// reusable phaser. This is the deterministic simulation fabric the golden
// runs, fault-plan tests and benchmarks are built on — it moved here from
// internal/mpi unchanged when the transport interface was extracted, so its
// semantics (link capacity, abort behavior, once-per-world rendezvous hook)
// are exactly what the pre-extraction worlds had.
package chantransport

import (
	"time"

	"kgedist/internal/transport"
)

// Hub is one world's shared fabric: the link matrix, the rendezvous phaser
// and the failure state, shared by all P endpoints. Build one per world with
// New and hand each rank its Endpoint.
type Hub struct {
	p     int
	links [][]chan transport.Message // links[src][dst]
	ph    *phaser
	fs    *transport.FailureState
}

// New builds a hub for p ranks. Link buffers hold 4p+8 messages — enough
// that no collective in the repertoire (ring rotation, binomial tree,
// dissemination barrier) ever blocks a sender whose receiver is alive and
// making progress.
func New(p int) *Hub {
	if p < 1 {
		panic("chantransport: world size must be at least 1")
	}
	links := make([][]chan transport.Message, p)
	for s := range links {
		links[s] = make([]chan transport.Message, p)
		for d := range links[s] {
			if s != d {
				links[s][d] = make(chan transport.Message, 4*p+8)
			}
		}
	}
	h := &Hub{p: p, links: links, ph: newPhaser(p)}
	h.fs = transport.NewFailureState(h.ph.abort)
	return h
}

// Endpoint returns rank's handle on the hub.
func (h *Hub) Endpoint(rank int) transport.Endpoint {
	if rank < 0 || rank >= h.p {
		panic("chantransport: rank out of range")
	}
	return &endpoint{h: h, rank: rank, timers: make([]*time.Timer, h.p)}
}

// endpoint implements transport.Endpoint over the hub's channels.
type endpoint struct {
	h      *Hub
	rank   int
	timers []*time.Timer // Recv watchdogs, by source rank (transport.ArmTimer)
}

func (e *endpoint) Rank() int { return e.rank }
func (e *endpoint) Size() int { return e.h.p }

// Send delivers m by reference: the payload slices transfer to the receiver
// without copying, which is what makes the pooled-staging discipline in the
// dense collectives (sender Gets, single receiver Puts) allocation-free.
func (e *endpoint) Send(dst int, m transport.Message) error {
	select {
	case e.h.links[e.rank][dst] <- m:
		return nil
	case <-e.h.fs.Abort():
		return e.abortErr()
	}
}

func (e *endpoint) Recv(src int, timeout time.Duration) (transport.Message, error) {
	var deadline <-chan time.Time
	if timeout > 0 {
		t := transport.ArmTimer(&e.timers[src], timeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case m := <-e.h.links[src][e.rank]:
		return m, nil
	case <-e.h.fs.Abort():
		return transport.Message{}, e.abortErr()
	case <-deadline:
		return transport.Message{}, transport.ErrRecvTimeout
	}
}

func (e *endpoint) Rendezvous(onLast func()) error {
	if err := e.h.ph.await(onLast); err != nil {
		return e.abortErr()
	}
	return nil
}

func (e *endpoint) FailRank(rank int) { e.h.fs.Fail(rank) }

func (e *endpoint) Failed() []int { return e.h.fs.Failed() }

func (e *endpoint) Err() error { return e.h.fs.Err() }

// Close is a no-op: channels and the phaser are garbage-collected with the
// hub, and a channel world is torn down by dropping it (Shrink builds a
// fresh hub rather than mutating this one).
func (e *endpoint) Close() error { return nil }

// abortErr reports the failure verdict after an abort, falling back to the
// generic sentinel if the dead set is somehow empty (abort without a
// recorded rank cannot happen through FailRank, but the fallback keeps the
// error non-nil by construction).
func (e *endpoint) abortErr() error {
	if err := e.h.fs.Err(); err != nil {
		return err
	}
	return transport.ErrAborted
}
