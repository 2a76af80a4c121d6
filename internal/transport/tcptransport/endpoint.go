// Package tcptransport is the multi-process TCP backend of the transport
// interface: every rank is a real OS process, links are TCP connections
// carrying length-prefixed CRC-checked frames, and liveness is tracked with
// application-level heartbeats. It is robustness-first by construction:
//
//   - Rendezvous handshake: every process dials the coordinator (original
//     rank 0), which validates world size, rank identity, build tag and
//     protocol version before sealing the membership roster — a
//     misconfigured or mismatched process is rejected, never meshed.
//   - Dial retry with capped exponential backoff and jitter, under a hard
//     connect/handshake deadline, so a slow-starting peer is tolerated and
//     a missing one is a bounded error instead of an unbounded hang.
//   - Per-connection read and write deadlines: a peer that stops producing
//     frames (even TCP keepalive-level silence) trips the reader's deadline
//     and is declared failed; a peer that stops consuming trips the
//     writer's deadline.
//   - Heartbeats: each connection's writer pings on an interval and the
//     pong round-trip feeds a per-peer RTT histogram, so a silent-but-open
//     connection is detected in HeartbeatTimeout, far below mpi's recv
//     watchdog backstop.
//   - Connection loss — dropped, severed, checksum-corrupted or timed out —
//     surfaces as the same typed *transport.RankFailedError the simnet
//     fault plans produce, so World.Shrink and checkpoint recovery work
//     unmodified on real socket failures.
//
// Failure taxonomy (socket event -> verdict): read/write timeout, EOF,
// ECONNRESET and friends on a live peer's connection => that peer is failed;
// a CRC mismatch => the sending peer is failed (the stream cannot be
// resynchronized); an ftRegroup frame => the named ranks are failed; an
// ftBye frame => clean departure, never a failure. All verdicts trip the
// shared abort so every blocked operation returns the same error.
//
// One dead rank must stay one dead rank, so verdicts flow one way only: the
// accuser sends the victim its own verdict before hanging up; a rank that
// holds itself dead accuses nobody afterwards (the hang-ups it then reads
// are the survivors leaving it, not failing); a regroup frame from a rank the
// receiver already holds dead is ignored; and an error on a connection this
// endpoint closed itself is no evidence against the peer. Without these a
// victim that is merely slow convicts its accuser on the EOF, and the world
// splits over who died.
package tcptransport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kgedist/internal/transport"
	"kgedist/internal/xrand"
)

// Default tuning. All are overridable per Options; tests shrink them to
// keep fault detection fast, production runs keep the generous defaults so
// a GC pause or CPU-starved peer is not declared dead.
const (
	DefaultDialTimeout       = 3 * time.Second
	DefaultConnectDeadline   = 60 * time.Second
	DefaultHeartbeatInterval = 500 * time.Millisecond
	DefaultHeartbeatTimeout  = 10 * time.Second

	// maxDialBackoff caps the exponential retry backoff.
	maxDialBackoff = 2 * time.Second

	// drainTimeout bounds the post-shutdown read drain that keeps a
	// half-closed socket absorbing the peer's in-flight frames (so a full
	// close cannot RST away an unread regroup or bye on the peer's side).
	drainTimeout = 2 * time.Second
	// verdictGrace bounds how long a condemned peer's connection stays open
	// for the verdict frame to flush when the writer cannot close it itself
	// (stalled, blocked on a full socket, or already gone).
	verdictGrace = time.Second
	// maxWorldSize is bounded by the dead-set bitmask width in the wire
	// protocol (and is far above anything the simulation targets).
	maxWorldSize = 64
)

// Options configures one process's endpoint.
type Options struct {
	// Rank is this process's rank in [0, WorldSize) at generation 0 (its
	// "original rank"; shrinks renumber densely but identity is stable).
	Rank int
	// WorldSize is the number of processes in the job.
	WorldSize int
	// CoordinatorAddr is the host:port where original rank 0 listens; every
	// process (including rank 0 itself) must agree on it.
	CoordinatorAddr string
	// ListenAddr is this process's listen address. Defaults to
	// CoordinatorAddr for rank 0 and "127.0.0.1:0" otherwise; the actual
	// bound address (Addr) is advertised to peers through the roster, so
	// port 0 is fine for every rank but the coordinator.
	ListenAddr string
	// Listener optionally injects a pre-bound listener (in-process tests
	// that cannot tolerate a bind race); ListenAddr is then ignored.
	Listener net.Listener
	// BuildTag is validated across processes during the handshake so a
	// stale binary cannot join a newer job. Defaults to "dev".
	BuildTag string
	// DialTimeout bounds one TCP connect attempt.
	DialTimeout time.Duration
	// ConnectDeadline bounds the whole rendezvous + mesh handshake,
	// including every dial retry. It also bounds how long a re-mesh after
	// a failure waits for the surviving peers, so it must exceed the
	// longest collective-free compute stretch of the training loop.
	ConnectDeadline time.Duration
	// HeartbeatInterval is how often each connection's writer pings.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a reader tolerates total frame silence
	// before declaring the peer failed. Must comfortably exceed the
	// interval (Dial enforces >= 2x).
	HeartbeatTimeout time.Duration
	// Metrics is the optional health sink, shared across Shrink
	// generations. Dial allocates a private one when nil.
	Metrics *transport.Metrics
	// Logf, when set, receives debug-level transport events.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.BuildTag == "" {
		o.BuildTag = "dev"
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.ConnectDeadline <= 0 {
		o.ConnectDeadline = DefaultConnectDeadline
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if o.HeartbeatTimeout < 2*o.HeartbeatInterval {
		o.HeartbeatTimeout = 2 * o.HeartbeatInterval
	}
	if o.ListenAddr == "" {
		if o.Rank == 0 {
			o.ListenAddr = o.CoordinatorAddr
		} else {
			o.ListenAddr = "127.0.0.1:0"
		}
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// wireFrame is one queued outbound frame: a data message (typ ftData) or a
// pre-encoded control/barrier payload. last makes the writer close the
// connection once the frame is on the wire.
type wireFrame struct {
	typ     byte
	m       transport.Message
	payload []byte
	last    bool
}

// Endpoint is one process's handle on the TCP fabric for one membership
// generation. Shrink consumes it and returns the next generation's
// endpoint; Close releases the final one.
type Endpoint struct {
	opt  Options
	orig int // original (generation-0) rank
	gen  uint32
	rank int   // dense rank in the current generation
	size int   // current world size
	live []int // original ranks of current members, ascending; live[rank] == orig

	host      *listenHost
	hostOwner bool // false after Shrink hands the listener to the successor
	fs        *transport.FailureState
	met       *transport.Metrics

	conns   []*peerConn              // by dense rank; nil at self
	inbox   []chan transport.Message // by dense source rank
	barCh   []chan barToken          // by dense source rank
	barrier uint64                   // local barrier epoch (collective loop only)
	done    chan struct{}            // closed by teardown
	closed  atomic.Bool
	wg      sync.WaitGroup

	// deadMask accumulates the original ranks dead across every generation
	// so far; it is reported in registrations so the coordinator can detect
	// diverged membership views.
	deadMask uint64

	pendMu     sync.Mutex
	pending    []pendingConn // next-generation handshakes that arrived early
	handedOver bool          // Shrink took pending: late arrivals are hung up on
}

// barToken is one dissemination-barrier arrival notice.
type barToken struct {
	epoch uint64
	round uint8
}

// peerConn is one live connection with its reader/writer goroutines and
// fault-injection switches.
type peerConn struct {
	ep    *Endpoint
	dense int
	orig  int
	c     net.Conn
	br    *bufio.Reader // shared with the handshake that produced the conn

	ctrl chan wireFrame // pings/pongs, regroup, reject — never blocks on data
	data chan wireFrame // collective messages and barrier tokens

	closeOnce sync.Once
	departed  atomic.Bool // peer sent ftBye: clean shutdown, not a failure
	stalled   atomic.Bool // Inject(FaultStall): writer pauses, heartbeats stop
	corrupt   atomic.Bool // Inject(FaultCorrupt): damage the next data frame
}

// Dial joins the job: it binds the listener, runs the rendezvous handshake
// against the coordinator (validating world size, rank identity, build tag
// and protocol version), meshes with every peer, and returns once the full
// world has completed an initial barrier. The entire sequence is bounded by
// Options.ConnectDeadline; a peer that never shows up makes Dial fail with
// an error naming it rather than hang.
func Dial(opt Options) (*Endpoint, error) {
	opt = opt.withDefaults()
	if opt.WorldSize < 1 || opt.WorldSize > maxWorldSize {
		return nil, fmt.Errorf("tcptransport: world size %d outside [1,%d]", opt.WorldSize, maxWorldSize)
	}
	if opt.Rank < 0 || opt.Rank >= opt.WorldSize {
		return nil, fmt.Errorf("tcptransport: rank %d outside [0,%d)", opt.Rank, opt.WorldSize)
	}
	if opt.CoordinatorAddr == "" && opt.WorldSize > 1 {
		return nil, fmt.Errorf("tcptransport: coordinator address required for world size %d", opt.WorldSize)
	}
	deadline := time.Now().Add(opt.ConnectDeadline)
	host, err := newListenHost(opt, deadline)
	if err != nil {
		return nil, err
	}
	met := opt.Metrics
	if met == nil {
		met = transport.NewMetrics()
	}
	live := make([]int, opt.WorldSize)
	for i := range live {
		live[i] = i
	}
	e := newEndpoint(opt, host, met, 0, opt.Rank, live)
	if err := e.establish(deadline, nil); err != nil {
		host.close()
		return nil, err
	}
	return e, nil
}

// newEndpoint builds the per-generation shell; establish wires it up.
func newEndpoint(opt Options, host *listenHost, met *transport.Metrics, gen uint32, orig int, live []int) *Endpoint {
	rank := -1
	for i, o := range live {
		if o == orig {
			rank = i
		}
	}
	e := &Endpoint{
		opt:       opt,
		orig:      orig,
		gen:       gen,
		rank:      rank,
		size:      len(live),
		live:      live,
		host:      host,
		hostOwner: true,
		met:       met,
		done:      make(chan struct{}),
	}
	e.fs = transport.NewFailureState(nil)
	return e
}

// Addr returns the listener's actual bound address (resolving a ":0"
// ListenAddr to the kernel-assigned port).
func (e *Endpoint) Addr() string { return e.host.ln.Addr().String() }

// Rank returns the dense rank in the current generation.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the current world size.
func (e *Endpoint) Size() int { return e.size }

// Generation returns the membership generation (0 at Dial, +1 per Shrink).
func (e *Endpoint) Generation() uint32 { return e.gen }

// Metrics returns the endpoint's health sink.
func (e *Endpoint) Metrics() *transport.Metrics { return e.met }

// Send queues m for dst. It blocks only on backpressure (a full outbound
// queue) and unblocks with the failure verdict on abort.
func (e *Endpoint) Send(dst int, m transport.Message) error {
	if dst == e.rank || dst < 0 || dst >= e.size {
		panic(fmt.Sprintf("tcptransport: send to invalid rank %d (self %d of %d)", dst, e.rank, e.size))
	}
	pc := e.conns[dst]
	select {
	case pc.data <- wireFrame{typ: ftData, m: m}:
		return nil
	case <-e.fs.Abort():
		return e.abortErr()
	case <-e.done:
		return fmt.Errorf("tcptransport: endpoint closed")
	}
}

// Recv returns the next message from src. timeout > 0 arms the watchdog;
// expiry returns transport.ErrRecvTimeout and the caller picks the verdict.
func (e *Endpoint) Recv(src int, timeout time.Duration) (transport.Message, error) {
	if src == e.rank || src < 0 || src >= e.size {
		panic(fmt.Sprintf("tcptransport: recv from invalid rank %d (self %d of %d)", src, e.rank, e.size))
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case m := <-e.inbox[src]:
		return m, nil
	case <-e.fs.Abort():
		return transport.Message{}, e.abortErr()
	case <-deadline:
		return transport.Message{}, transport.ErrRecvTimeout
	case <-e.done:
		return transport.Message{}, fmt.Errorf("tcptransport: endpoint closed")
	}
}

// Rendezvous runs a dissemination barrier over the mesh: ceil(log2 P)
// rounds, each sending a token to rank+2^k and awaiting one from rank-2^k.
// Completion of any rank implies every rank has arrived, so onLast (run
// locally, once per process) satisfies the "after all arrived, before any
// released" contract — each process charges its private cluster copy
// identically. Tokens carry (epoch, round); a mismatch means the peers are
// executing different collectives and is treated as a protocol violation.
// The wait deliberately has no deadline of its own (peers legitimately
// compute for a long time between collectives); liveness is the heartbeat
// monitor's job.
func (e *Endpoint) Rendezvous(onLast func()) error {
	epoch := e.barrier
	e.barrier++
	var round uint8
	for k := 1; k < e.size; k <<= 1 {
		dst := (e.rank + k) % e.size
		src := (e.rank - k + e.size) % e.size
		tok := make([]byte, 0, 9)
		tok = binary.LittleEndian.AppendUint64(tok, epoch)
		tok = append(tok, round)
		select {
		case e.conns[dst].data <- wireFrame{typ: ftBarrier, payload: tok}:
		case <-e.fs.Abort():
			return e.abortErr()
		case <-e.done:
			return fmt.Errorf("tcptransport: endpoint closed")
		}
		select {
		case got := <-e.barCh[src]:
			if got.epoch != epoch || got.round != round {
				e.failDense(src, fmt.Sprintf("barrier skew: got epoch %d round %d, want %d/%d",
					got.epoch, got.round, epoch, round))
				return e.abortErr()
			}
		case <-e.fs.Abort():
			return e.abortErr()
		case <-e.done:
			return fmt.Errorf("tcptransport: endpoint closed")
		}
		round++
	}
	if onLast != nil {
		onLast()
	}
	return nil
}

// FailRank declares a dense rank dead and broadcasts the verdict to every
// peer (best-effort regroup frames), so a failure detected by one process —
// a recv-watchdog expiry, say — aborts the whole world promptly instead of
// waiting for every process to time out independently.
func (e *Endpoint) FailRank(rank int) {
	if rank < 0 || rank >= e.size {
		return
	}
	e.failDense(rank, "declared failed")
}

func (e *Endpoint) failDense(rank int, cause string) {
	if rank != e.rank && e.holdsDead(e.rank) {
		return // the world excluded this rank; it has no standing to accuse
	}
	if !e.fs.Fail(rank) {
		return
	}
	e.met.IncRankFailure()
	e.opt.logf("tcptransport: rank %d (orig %d) gen %d: peer rank %d (orig %d) failed: %s",
		e.rank, e.orig, e.gen, rank, e.live[rank], cause)
	// Best-effort broadcast; a full control queue or dead writer just means
	// that peer learns through its own detector (or the Shrink regroup). The
	// victim gets its own verdict as the last frame before the hang-up, so it
	// reads a conviction rather than a bare EOF it would blame on this rank;
	// its writer closes the connection behind the frame, and the grace timer
	// closes it regardless, to unblock the reader and writer of a peer that
	// is truly gone.
	mask := uint64(1) << uint(e.live[rank])
	frame := binary.LittleEndian.AppendUint64(nil, mask)
	for d, pc := range e.conns {
		if pc == nil {
			continue
		}
		select {
		case pc.ctrl <- wireFrame{typ: ftRegroup, payload: frame, last: d == rank}:
			if d == rank {
				time.AfterFunc(verdictGrace, pc.close)
			}
		default:
			if d == rank {
				pc.close()
			}
		}
	}
}

// holdsDead reports whether this endpoint holds the dense rank dead.
func (e *Endpoint) holdsDead(rank int) bool {
	return slices.Contains(e.fs.Failed(), rank)
}

// Failed returns the dense ranks known dead, sorted (nil if none).
func (e *Endpoint) Failed() []int { return e.fs.Failed() }

// Err returns the failure verdict, or nil.
func (e *Endpoint) Err() error { return e.fs.Err() }

func (e *Endpoint) abortErr() error {
	if err := e.fs.Err(); err != nil {
		return err
	}
	return transport.ErrAborted
}

// Close tears the endpoint down: byes are flushed to every live peer (so
// they observe a departure, not a failure), connections close, goroutines
// drain, and the listener is released. Idempotent.
func (e *Endpoint) Close() error {
	e.teardown(true)
	return nil
}

// teardown stops the generation's connections and goroutines. closeHost
// additionally releases the listener (false during Shrink, which hands it
// to the successor generation).
func (e *Endpoint) teardown(closeHost bool) {
	if e.closed.CompareAndSwap(false, true) {
		close(e.done)
	}
	e.wg.Wait()
	for _, pc := range e.conns {
		if pc != nil {
			pc.close()
		}
	}
	if closeHost && e.hostOwner {
		e.hostOwner = false
		e.host.close()
		e.pendMu.Lock()
		pend := e.pending
		e.pending = nil
		e.pendMu.Unlock()
		for _, p := range pend {
			_ = p.rc.c.Close()
		}
	}
}

// close shuts the raw connection exactly once.
func (pc *peerConn) close() {
	pc.closeOnce.Do(func() { _ = pc.c.Close() })
}

// fail reports the connection's peer dead, unless it departed cleanly or
// the endpoint is shutting down.
func (pc *peerConn) fail(cause string) {
	if pc.departed.Load() || pc.ep.closed.Load() {
		return
	}
	pc.ep.failDense(pc.dense, cause)
}

// writeLoop owns the connection's outbound half: it drains the control
// queue ahead of data (heartbeats and failure notices must not sit behind a
// bulk gradient frame), pings every HeartbeatInterval, applies a write
// deadline to every frame, and on shutdown flushes both queues — control
// frames, then everything already accepted into the data queue — before the
// final bye.
func (pc *peerConn) writeLoop() {
	defer pc.ep.wg.Done()
	opt := &pc.ep.opt
	hb := time.NewTicker(opt.HeartbeatInterval)
	defer hb.Stop()
	// Every frame is sealed in scratch (header, payload, trailer) and goes
	// out in one Write; scratch grows to the largest frame and is reused.
	var scratch []byte
	write := func(f wireFrame) bool {
		scratch = openFrame(scratch)
		corrupt := false
		if f.typ == ftData {
			scratch = appendMessage(scratch, f.m)
			corrupt = pc.corrupt.CompareAndSwap(true, false)
		} else {
			scratch = append(scratch, f.payload...)
		}
		frame, err := sealFrame(scratch, f.typ, corrupt)
		if err == nil {
			scratch = frame
			_ = pc.c.SetWriteDeadline(time.Now().Add(2 * opt.HeartbeatTimeout))
			_, err = pc.c.Write(frame)
		}
		if err != nil {
			if !errors.Is(err, net.ErrClosed) { // our own hang-up is no evidence
				pc.fail(fmt.Sprintf("write to orig %d: %v", pc.orig, err))
			}
			return false
		}
		pc.ep.met.AddSent(int64(len(frame)))
		if f.last {
			pc.close()
		}
		return !f.last
	}
	for {
		if pc.stalled.Load() {
			// Injected stall: stop producing frames (heartbeats included)
			// without closing the socket, so the peer's read deadline — not
			// the OS — detects us.
			select {
			case <-pc.ep.done:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		// Control frames preempt data frames.
		select {
		case f := <-pc.ctrl:
			if !write(f) {
				return
			}
			continue
		default:
		}
		select {
		case f := <-pc.ctrl:
			if !write(f) {
				return
			}
		case f := <-pc.data:
			if !write(f) {
				return
			}
		case <-hb.C:
			ping := binary.LittleEndian.AppendUint64(nil, uint64(time.Now().UnixNano()))
			if !write(wireFrame{typ: ftPing, payload: ping}) {
				return
			}
		case <-pc.ep.done:
			// Drain pending control frames (a Shrink's regroup broadcast
			// must reach the wire) and then the data queue, and only then
			// depart. A frame in pc.data was accepted by a Send or
			// Rendezvous that has already returned success: select may pick
			// done over it, and dropping it — a barrier token above all —
			// leaves the peer waiting with no failure to wake it, because
			// the bye that follows reads as a clean departure.
			for {
				select {
				case f := <-pc.ctrl:
					if !write(f) {
						return
					}
				case f := <-pc.data:
					if !write(f) {
						return
					}
				default:
					_ = pc.c.SetWriteDeadline(time.Now().Add(time.Second))
					_, _ = writeFrame(pc.c, ftBye, nil, false)
					if cw, ok := pc.c.(interface{ CloseWrite() error }); ok {
						// Half-close only: a full close here would make the
						// kernel answer the peer's next in-flight frame with
						// an RST, destroying the regroup and bye still
						// sitting unread in the peer's receive buffer — the
						// peer would then misread this clean departure as a
						// crash. The FIN says "done sending" while the
						// socket keeps absorbing the peer's frames; the
						// read loop drains and closes for real.
						_ = cw.CloseWrite()
					} else {
						pc.close()
					}
					return
				}
			}
		}
	}
}

// readLoop owns the inbound half: a rolling read deadline of
// HeartbeatTimeout is the silent-peer detector (any frame, ping included,
// resets it), CRC failures condemn the peer, and frames demux to the data
// inbox, the barrier channel, or the heartbeat plumbing. Every frame is read
// into the connection's one reused buffer, so whatever outlives an
// iteration is copied out of it first.
func (pc *peerConn) readLoop() {
	defer pc.ep.wg.Done()
	e := pc.ep
	fr := frameReader{r: pc.br}
	draining := false
	for {
		if e.closed.Load() {
			if !draining {
				// Shutdown drain: the write loop half-closed the socket, so
				// the peer's in-flight frames keep landing here instead of
				// provoking an RST that would destroy our unread bye on the
				// peer's side. Absorb them for a bounded window (until the
				// peer's own bye or FIN, at the latest drainTimeout), then
				// close for real.
				draining = true
				_ = pc.c.SetReadDeadline(time.Now().Add(drainTimeout))
			}
		} else {
			_ = pc.c.SetReadDeadline(time.Now().Add(e.opt.HeartbeatTimeout))
		}
		typ, payload, wire, err := fr.next()
		if err != nil {
			switch {
			case pc.departed.Load() || e.closed.Load():
			case errors.Is(err, net.ErrClosed):
				// This endpoint hung up (a verdict's close, or an injected
				// sever): no evidence against the peer.
			case err == errCRC:
				e.met.IncCRCError()
				pc.fail("corrupt frame (checksum mismatch)")
			case isTimeout(err):
				e.met.IncHeartbeatMiss()
				pc.fail(fmt.Sprintf("silent peer: no frames for %v", e.opt.HeartbeatTimeout))
			default:
				pc.fail(fmt.Sprintf("read from orig %d: %v", pc.orig, err))
			}
			pc.close()
			return
		}
		e.met.AddRecv(wire)
		if draining {
			if typ == ftBye {
				pc.departed.Store(true)
				pc.close()
				return
			}
			continue
		}
		switch typ {
		case ftData:
			m, derr := decodeMessage(payload)
			if derr != nil {
				pc.fail(fmt.Sprintf("malformed data frame: %v", derr))
				return
			}
			select {
			case e.inbox[pc.dense] <- m:
			case <-e.done:
				// Shutting down: nobody will read m, but the socket must
				// still drain (loop top) — returning here lets teardown
				// full-close over unread frames, and the RST that answers
				// them turns this clean departure into a crash on the peer.
				continue
			}
		case ftBarrier:
			if len(payload) != 9 {
				pc.fail("malformed barrier token")
				return
			}
			tok := barToken{epoch: binary.LittleEndian.Uint64(payload), round: payload[8]}
			select {
			case e.barCh[pc.dense] <- tok:
			case <-e.done:
				continue // drain, as above
			}
		case ftPing:
			// Echo so the peer can measure RTT; drop if the control queue
			// is momentarily full — the next ping will get through. The
			// echo waits in the queue, so it must not alias the read buffer.
			select {
			case pc.ctrl <- wireFrame{typ: ftPong, payload: slices.Clone(payload)}:
			default:
			}
		case ftPong:
			if len(payload) == 8 {
				sent := int64(binary.LittleEndian.Uint64(payload))
				e.met.ObserveRTT(pc.orig, time.Since(time.Unix(0, sent)).Seconds())
			}
		case ftBye:
			// Clean departure. Closing our side completes the graceful
			// shutdown: the peer's drain loop sees our FIN and releases the
			// socket.
			pc.departed.Store(true)
			pc.close()
			return
		case ftRegroup:
			// A rank this process already holds dead has no say over who
			// else is: its accusations are the reflex of a convicted peer.
			if len(payload) == 8 && !e.holdsDead(pc.dense) {
				e.applyDeadMask(binary.LittleEndian.Uint64(payload), fmt.Sprintf("regroup from orig %d", pc.orig))
			}
		case ftReject:
			pc.fail(fmt.Sprintf("peer rejected this rank: %s", payload))
			return
		default:
			// Unknown-but-valid frame from a same-version peer: ignore for
			// forward compatibility within a protocol version.
		}
	}
}

// applyDeadMask fails every live rank named in an original-rank bitmask.
// Naming this process's own rank is meaningful: peers declared us dead (we
// were silent past their deadline), so we abort locally too — our next
// collective reports a RankFailedError that includes ourselves, and the
// caller exits instead of training into a world that excluded it.
func (e *Endpoint) applyDeadMask(mask uint64, cause string) {
	for dense, orig := range e.live {
		if mask&(1<<uint(orig)) != 0 {
			e.failDense(dense, cause)
		}
	}
}

// isTimeout reports whether err is a network timeout (deadline expiry).
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	if !ok {
		// io.ReadFull wraps partial reads; unwrap one level.
		type unwrapper interface{ Unwrap() error }
		if u, uok := err.(unwrapper); uok {
			if ne2, ok2 := u.Unwrap().(net.Error); ok2 {
				return ne2.Timeout()
			}
		}
		return false
	}
	return ne.Timeout()
}

// dialRetry dials addr with capped exponential backoff plus full jitter
// until it succeeds or the deadline passes. The jitter source is the
// repo's deterministic xrand seeded per rank — no global randomness — which
// still decorrelates the retry storms of different ranks.
func dialRetry(opt *Options, met *transport.Metrics, addr string, deadline time.Time) (net.Conn, error) {
	rng := xrand.New(0x7C0FFEE ^ uint64(opt.Rank)<<32 ^ uint64(opt.Rank))
	backoff := 25 * time.Millisecond
	var lastErr error
	for attempt := 0; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("tcptransport: dial %s: deadline exceeded after %d attempts: %w", addr, attempt, lastErr)
		}
		if attempt > 0 {
			met.IncReconnect()
		}
		d := net.Dialer{Timeout: minDuration(opt.DialTimeout, remaining)}
		c, err := d.Dial("tcp", addr)
		if err == nil {
			if tc, ok := c.(*net.TCPConn); ok {
				_ = tc.SetNoDelay(true)
			}
			return c, nil
		}
		lastErr = err
		sleep := time.Duration(rng.Float64() * float64(backoff))
		sleep = minDuration(sleep, time.Until(deadline))
		if sleep > 0 {
			time.Sleep(sleep)
		}
		if backoff *= 2; backoff > maxDialBackoff {
			backoff = maxDialBackoff
		}
	}
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
