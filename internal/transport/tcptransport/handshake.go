package tcptransport

// Rendezvous handshake and failure re-mesh.
//
// Membership is generational. Generation 0 is the full world; every
// World.Shrink advances the generation over the survivors. Each generation
// is led by its lowest live original rank: original rank 0 at generation 0,
// reached at Options.CoordinatorAddr, and after a shrink the lowest
// survivor, reached at the address the previous roster carried. Losing the
// leader is therefore no different from losing any other rank. Every link
// is made by one join exchange:
//
//  1. Each member dials every lower-ranked member in ascending order, the
//     leader first (retrying with backoff under the connect deadline), and
//     sends ftJoin carrying its generation, original rank, world size,
//     build tag, listen address and the set of original ranks it believes
//     dead. The frame header carries the protocol version.
//  2. Each member waits for the JOINs of every higher-ranked member and
//     validates each one (checkJoin). A mismatch in build, world size,
//     generation or membership is answered with ftReject naming it — a
//     misconfigured process cannot join — and a member still missing at the
//     deadline is an error naming it: membership is never silently shrunk
//     during a handshake (shrinking is the mpi layer's explicit decision).
//  3. Once all have joined, it answers each with ftRoster, the sealed
//     membership (original ranks + listen addresses). The leader's roster
//     tells the members where to dial each other; every roster is checked
//     against the dialler's own view. Each joined connection stays as that
//     pair's mesh link.
//  4. Everyone runs one dissemination barrier, so Dial/Shrink return only
//     once the entire generation is live.
//
// Failure recovery rides the same path: FailRank broadcasts ftRegroup, the
// mpi layer shrinks, and the survivors join generation g+1. A JOIN for g+1
// that reaches a member still at g is parked (the listener stashes it as
// pending) and adopted when that member's own establish for g+1 begins; its
// dead set is applied at once, so the member aborts without waiting for its
// own detectors.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kgedist/internal/transport"
)

// rawConn pairs a connection with its buffered reader. The reader may hold
// over-read bytes, so it must follow the connection everywhere — handshake
// reads and the adopted read loop share it.
type rawConn struct {
	c  net.Conn
	br *bufio.Reader
}

func newRawConn(c net.Conn) rawConn {
	return rawConn{c: c, br: bufio.NewReader(c)}
}

// listenHost owns the listener across generations: the endpoint of the
// moment installs its accept sink, and the host survives Shrink so peers
// can always reach this process at one stable address.
type listenHost struct {
	ln     net.Listener
	mu     sync.Mutex
	sink   func(net.Conn)
	closed atomic.Bool
}

func newListenHost(opt Options, deadline time.Time) (*listenHost, error) {
	ln := opt.Listener
	if ln == nil {
		// Bind with retry: launchers commonly reserve a port by binding and
		// releasing it moments before the worker starts, so the first
		// attempts can race the kernel's release of the address.
		bindDeadline := time.Now().Add(minDuration(2*time.Second, time.Until(deadline)))
		for {
			var err error
			ln, err = net.Listen("tcp", opt.ListenAddr)
			if err == nil {
				break
			}
			if time.Now().After(bindDeadline) {
				return nil, fmt.Errorf("tcptransport: listen %s: %w", opt.ListenAddr, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	h := &listenHost{ln: ln}
	go h.acceptLoop()
	return h, nil
}

func (h *listenHost) acceptLoop() {
	for {
		c, err := h.ln.Accept()
		if err != nil {
			if h.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		h.mu.Lock()
		sink := h.sink
		h.mu.Unlock()
		if sink == nil {
			// Between generations: drop the conn; dialers retry with
			// backoff until the successor endpoint installs its sink.
			_ = c.Close()
			continue
		}
		go sink(c)
	}
}

func (h *listenHost) setSink(sink func(net.Conn)) {
	h.mu.Lock()
	h.sink = sink
	h.mu.Unlock()
}

func (h *listenHost) close() {
	if h.closed.CompareAndSwap(false, true) {
		_ = h.ln.Close()
	}
}

// join is a decoded ftJoin, with the connection it arrived on.
type join struct {
	gen       uint32
	orig      int
	worldSize int
	build     string
	addr      string
	deadMask  uint64
	rc        rawConn
}

func encodeJoin(j join) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, j.gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(j.orig))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(j.worldSize))
	buf = binary.LittleEndian.AppendUint64(buf, j.deadMask)
	buf = appendStr(buf, j.build)
	return appendStr(buf, j.addr)
}

func decodeJoin(p []byte) (join, error) {
	c := cursor{p: p}
	j := join{gen: c.u32()}
	j.orig = int(c.u32())
	j.worldSize = int(c.u32())
	j.deadMask = c.u64()
	j.build = c.str()
	j.addr = c.str()
	return j, c.err
}

func encodeRoster(gen uint32, live []int, addrs map[int]string) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(live)))
	for _, orig := range live {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(orig))
		buf = appendStr(buf, addrs[orig])
	}
	return buf
}

func decodeRoster(p []byte) (gen uint32, live []int, addrs map[int]string, err error) {
	c := cursor{p: p}
	gen = c.u32()
	n := int(c.u32())
	if c.err == nil && (n < 0 || n > maxWorldSize) {
		return 0, nil, nil, fmt.Errorf("tcptransport: roster size %d out of range", n)
	}
	addrs = make(map[int]string, n)
	for i := 0; i < n && c.err == nil; i++ {
		orig := int(c.u32())
		live = append(live, orig)
		addrs[orig] = c.str()
	}
	return gen, live, addrs, c.err
}

// reject answers a handshake with a reason and closes the connection.
func (e *Endpoint) reject(rc rawConn, reason string) {
	_ = rc.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if n, err := writeFrame(rc.c, ftReject, []byte(reason), false); err == nil {
		e.met.AddSent(n)
	}
	_ = rc.c.Close()
}

// liveMask returns the original-rank bitmask of the current members.
func (e *Endpoint) liveMask() uint64 {
	var m uint64
	for _, orig := range e.live {
		m |= 1 << uint(orig)
	}
	return m
}

// errDiverged marks a JOIN whose dead set names a live member: the two
// processes disagree on who is alive, and no wait can reconcile them.
var errDiverged = errors.New("inconsistent membership: views diverged")

// checkJoin is the one validator of an inbound JOIN: it must carry this
// job's build tag and world size, this generation or the next, and a sender
// that is a live member other than this one. A JOIN for this generation must
// also hold no live member dead; one for the next generation is exempt, as
// its dead set names the members this generation is losing.
func (e *Endpoint) checkJoin(j join) error {
	switch {
	case j.build != e.opt.BuildTag:
		return fmt.Errorf("build tag %q, this job runs %q", j.build, e.opt.BuildTag)
	case j.worldSize != e.opt.WorldSize:
		return fmt.Errorf("world size %d, this job has %d", j.worldSize, e.opt.WorldSize)
	case j.gen != e.gen && j.gen != e.gen+1:
		return fmt.Errorf("not accepting joins for generation %d (at %d)", j.gen, e.gen)
	case j.orig == e.orig || !slices.Contains(e.live, j.orig):
		return fmt.Errorf("rank %d is not an expected member of generation %d", j.orig, j.gen)
	case j.gen == e.gen && j.deadMask&e.liveMask() != 0:
		return fmt.Errorf("%w: dead set %#x names live members of %#x", errDiverged, j.deadMask, e.liveMask())
	}
	return nil
}

// routeInbound reads the JOIN a fresh inbound connection opens with
// (bounded by the connect deadline) and admits it.
func (e *Endpoint) routeInbound(c net.Conn, joins chan<- join) {
	rc := newRawConn(c)
	_ = c.SetReadDeadline(time.Now().Add(e.opt.ConnectDeadline))
	typ, payload, wire, err := readFrame(rc.br)
	if err != nil {
		// A dialer speaking another protocol version reads the cause here.
		e.reject(rc, fmt.Sprintf("unreadable join: %v", err))
		return
	}
	e.met.AddRecv(wire)
	_ = c.SetReadDeadline(time.Time{})
	j, err := decodeJoin(payload)
	if err == nil && typ != ftJoin {
		err = fmt.Errorf("frame type %d", typ)
	}
	if err != nil {
		e.reject(rc, fmt.Sprintf("malformed join: %v", err))
		return
	}
	j.rc = rc
	e.admit(j, joins)
}

// admit hands a JOIN for this generation to the establish waiting for it
// (joins is nil once that has finished) and parks a valid one for the next
// generation, applying its dead set at once: the sender has shrunk over a
// failure this endpoint may not have noticed yet.
func (e *Endpoint) admit(j join, joins chan<- join) {
	if j.gen == e.gen && joins != nil {
		select {
		case joins <- j:
		default:
			e.reject(j.rc, "join queue overflow")
		}
		return
	}
	switch err := e.checkJoin(j); {
	case err != nil:
		e.reject(j.rc, err.Error())
	case j.gen == e.gen+1:
		e.park(j)
		e.applyDeadMask(j.deadMask, fmt.Sprintf("reported by orig %d joining generation %d", j.orig, j.gen))
	default:
		e.reject(j.rc, fmt.Sprintf("generation %d is already sealed", j.gen))
	}
}

// park holds a next-generation JOIN for the successor endpoint. Once the
// pending list has been handed over (takePending), nobody would ever read a
// late arrival — a routeInbound that was mid-read when Shrink took the list
// — so it is hung up on instead: the dialer redials whole attempts and
// reaches the successor's sink.
func (e *Endpoint) park(j join) {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	if e.handedOver {
		_ = j.rc.c.Close()
		return
	}
	e.pending = append(e.pending, j)
}

func (e *Endpoint) takePending() []join {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	out := e.pending
	e.pending = nil
	e.handedOver = true
	return out
}

// establish runs the join exchanges of this endpoint's generation — dial
// every lower-ranked member, await every higher-ranked one — then adopts
// the connections and runs the initial barrier, all bounded by deadline.
// inherited carries JOINs that reached the previous generation's endpoint
// early.
func (e *Endpoint) establish(deadline time.Time, inherited []join) error {
	joins := make(chan join, maxWorldSize) // a slot per member: admit never blocks
	e.host.setSink(func(c net.Conn) { e.routeInbound(c, joins) })
	for _, j := range inherited {
		go e.admit(j, joins)
	}
	e.addrs[e.orig] = e.Addr()
	conns := make(map[int]rawConn) // by original rank
	for _, orig := range e.live[:e.rank] {
		rc, err := e.dialJoin(orig, deadline)
		if err != nil {
			return err
		}
		conns[orig] = rc
	}
	if err := e.awaitJoins(deadline, joins, conns); err != nil {
		return err
	}
	e.adopt(conns)
	e.host.setSink(func(c net.Conn) { e.routeInbound(c, nil) })
	if err := e.Rendezvous(nil); err != nil {
		return fmt.Errorf("tcptransport: generation %d ready barrier: %w", e.gen, err)
	}
	e.opt.logf("tcptransport: rank %d (orig %d) generation %d live: %d member(s)", e.rank, e.orig, e.gen, e.size)
	return nil
}

// dialJoin is the dialling half of a join exchange with orig: dial it, send
// this rank's JOIN and read the one reply. A connection dropped before the
// reply is redialled until the deadline (the peer may be between
// generations, its listener detached); a rejection is final. The roster
// that answers must match this rank's view; its addresses are merged into
// e.addrs, which is how the leader's roster tells a member where to dial.
func (e *Endpoint) dialJoin(orig int, deadline time.Time) (rawConn, error) {
	addr := e.addrs[orig]
	if addr == "" {
		return rawConn{}, fmt.Errorf("tcptransport: no address for orig rank %d in roster", orig)
	}
	payload := encodeJoin(join{gen: e.gen, orig: e.orig, worldSize: e.opt.WorldSize,
		build: e.opt.BuildTag, addr: e.Addr(), deadMask: e.deadMask})
	var lastErr error
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		if attempt > 0 {
			e.met.IncReconnect()
			time.Sleep(minDuration(100*time.Millisecond, time.Until(deadline)))
		}
		c, err := dialRetry(&e.opt, e.met, addr, deadline)
		if err != nil {
			return rawConn{}, err
		}
		rc := newRawConn(c)
		_ = c.SetWriteDeadline(time.Now().Add(minDuration(10*time.Second, time.Until(deadline))))
		n, err := writeFrame(c, ftJoin, payload, false)
		var typ byte
		var body []byte
		if err == nil {
			e.met.AddSent(n)
			_ = c.SetReadDeadline(deadline)
			typ, body, n, err = readFrame(rc.br)
		}
		if err != nil {
			lastErr = err
			_ = c.Close()
			continue
		}
		e.met.AddRecv(n)
		_ = c.SetReadDeadline(time.Time{})
		switch typ {
		case ftReject:
			_ = c.Close()
			return rawConn{}, fmt.Errorf("tcptransport: orig %d rejected orig %d joining generation %d: %s", orig, e.orig, e.gen, body)
		case ftRoster:
			gen, live, addrs, err := decodeRoster(body)
			if err != nil || gen != e.gen {
				_ = c.Close()
				return rawConn{}, fmt.Errorf("tcptransport: bad roster from orig %d for generation %d (got %d): %v", orig, e.gen, gen, err)
			}
			if !slices.Equal(live, e.live) {
				_ = c.Close()
				return rawConn{}, fmt.Errorf("tcptransport: membership mismatch: orig %d sealed %v, this rank expected %v — views diverged", orig, live, e.live)
			}
			maps.Copy(e.addrs, addrs)
			return rc, nil
		default:
			lastErr = fmt.Errorf("unexpected frame type %d awaiting roster", typ)
			_ = c.Close()
		}
	}
	return rawConn{}, fmt.Errorf("tcptransport: joining orig %d at %s for generation %d: deadline exceeded: %w", orig, addr, e.gen, lastErr)
}

// awaitJoins is the accepting half: wait until the deadline for a valid JOIN
// from every live member above this rank, then answer each with the sealed
// roster. An invalid JOIN is refused by name and the wait goes on, unless
// the sender's view of who is dead has diverged from this one's, which no
// wait can mend.
func (e *Endpoint) awaitJoins(deadline time.Time, joins <-chan join, conns map[int]rawConn) error {
	want := make(map[int]bool)
	for _, orig := range e.live[e.rank+1:] {
		want[orig] = true
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for len(want) > 0 {
		select {
		case j := <-joins:
			err := e.checkJoin(j)
			if err == nil && !want[j.orig] {
				err = fmt.Errorf("rank %d does not join rank %d in generation %d", j.orig, e.orig, e.gen)
			}
			if err != nil {
				e.reject(j.rc, err.Error())
				if errors.Is(err, errDiverged) {
					return fmt.Errorf("tcptransport: generation %d: orig %d joined with %w", e.gen, j.orig, err)
				}
				continue
			}
			delete(want, j.orig)
			conns[j.orig] = j.rc
			e.addrs[j.orig] = j.addr
		case <-timer.C:
			missing := slices.Sorted(maps.Keys(want))
			return fmt.Errorf("tcptransport: generation %d: rank(s) %v did not join orig %d within %v",
				e.gen, missing, e.orig, e.opt.ConnectDeadline)
		}
	}
	roster := encodeRoster(e.gen, e.live, e.addrs)
	for _, orig := range e.live[e.rank+1:] {
		c := conns[orig].c
		_ = c.SetWriteDeadline(time.Now().Add(minDuration(10*time.Second, time.Until(deadline))))
		n, err := writeFrame(c, ftRoster, roster, false)
		if err != nil {
			return fmt.Errorf("tcptransport: sending roster to orig %d: %w", orig, err)
		}
		e.met.AddSent(n)
	}
	return nil
}

// adopt turns the handshake connections into live peer links with their
// reader/writer goroutines.
func (e *Endpoint) adopt(conns map[int]rawConn) {
	e.conns = make([]*peerConn, e.size)
	e.inbox = make([]chan transport.Message, e.size)
	e.barCh = make([]chan barToken, e.size)
	for dense, orig := range e.live {
		if orig == e.orig {
			continue
		}
		rc := conns[orig]
		pc := &peerConn{
			ep:    e,
			dense: dense,
			orig:  orig,
			c:     rc.c,
			br:    rc.br,
			ctrl:  make(chan wireFrame, 16),
			data:  make(chan wireFrame, 4*e.size+8),
		}
		e.conns[dense] = pc
		e.inbox[dense] = make(chan transport.Message, 4*e.size+8)
		e.barCh[dense] = make(chan barToken, 8)
		e.wg.Add(2)
		go pc.readLoop()
		go pc.writeLoop()
	}
}

// Shrink implements transport.Shrinker: it consumes this endpoint and
// re-meshes the survivors as generation+1, renumbered densely and led by
// the lowest surviving original rank. dead lists dense ranks of this
// generation; ranks this endpoint already knows dead are unioned in. Being
// named dead oneself is unrecoverable (the peers have moved on).
// Additional failures discovered during the re-mesh window surface as
// errors, not silent membership changes, so the mpi layer's view of the
// world and the transport's can never diverge.
func (e *Endpoint) Shrink(dead []int) (transport.Endpoint, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("tcptransport: Shrink on a closed endpoint")
	}
	deadSet := make(map[int]bool, len(dead))
	for _, d := range dead {
		if d < 0 || d >= e.size {
			return nil, fmt.Errorf("tcptransport: Shrink rank %d out of range [0,%d)", d, e.size)
		}
		deadSet[d] = true
	}
	for _, d := range e.fs.Failed() {
		deadSet[d] = true
	}
	if len(deadSet) == 0 {
		return nil, fmt.Errorf("tcptransport: Shrink needs at least one dead rank")
	}
	if deadSet[e.rank] {
		return nil, fmt.Errorf("tcptransport: rank %d (orig %d) was declared dead by its peers; it cannot rejoin", e.rank, e.orig)
	}
	if len(deadSet) >= e.size {
		return nil, fmt.Errorf("tcptransport: Shrink would leave no survivors")
	}
	var deadOrigMask uint64
	newLive := make([]int, 0, e.size-len(deadSet))
	for dense, orig := range e.live {
		if deadSet[dense] {
			deadOrigMask |= 1 << uint(orig)
			continue
		}
		newLive = append(newLive, orig)
	}
	// Best-effort regroup so survivors that have not noticed yet abort now
	// rather than at their watchdog. The writers drain control queues on
	// teardown, so these reach the wire before the byes.
	frame := binary.LittleEndian.AppendUint64(nil, deadOrigMask)
	for d, pc := range e.conns {
		if pc == nil || deadSet[d] {
			continue
		}
		select {
		case pc.ctrl <- wireFrame{typ: ftRegroup, payload: frame}:
		default:
		}
	}
	e.host.setSink(nil)
	pend := e.takePending()
	e.teardown(false)
	e.hostOwner = false

	succ := newEndpoint(e.opt, e.host, e.met, e.gen+1, e.orig, newLive)
	succ.deadMask = e.deadMask | deadOrigMask
	succ.addrs = e.addrs
	deadline := time.Now().Add(e.opt.ConnectDeadline)
	if err := succ.establish(deadline, pend); err != nil {
		e.host.close()
		for _, j := range pend {
			_ = j.rc.c.Close()
		}
		return nil, err
	}
	return succ, nil
}
