package tcptransport

// Rendezvous handshake and failure re-mesh.
//
// Membership is generational. Generation 0 is the full world; every
// World.Shrink advances the generation over the survivors. Each generation
// is sealed by the coordinator (original rank 0, whose death is the one
// unrecoverable failure):
//
//  1. Every other member dials the coordinator (retrying with backoff under
//     the connect deadline) and sends ftRegister carrying its generation,
//     original rank, world size, build tag, listen address and the set of
//     original ranks it believes dead. The frame header carries the
//     protocol version; any mismatch in version, build, world size or
//     membership view is answered with ftReject — a misconfigured process
//     cannot join.
//  2. The coordinator waits for exactly the expected survivors. A missing
//     registrant past the deadline is an error naming it (initial start
//     and re-mesh alike: membership is never silently shrunk during a
//     handshake — shrinking is the mpi layer's explicit decision).
//  3. The coordinator seals the roster (member original ranks + listen
//     addresses) and sends it back on each registration connection, which
//     is kept as the coordinator<->member mesh link.
//  4. Members mesh pairwise: for original ranks 0 < i < j, j dials i and
//     they exchange ftHello/ftAck (same validation). Higher ranks accept.
//  5. Everyone runs one dissemination barrier, so Dial/Shrink return only
//     once the entire generation is live.
//
// Failure recovery rides the same path: FailRank broadcasts ftRegroup, the
// mpi layer shrinks, and the survivors re-register for generation g+1. A
// survivor that reaches the coordinator before the coordinator itself has
// shrunk is parked (the listener stashes the handshake as "pending") and
// adopted when the coordinator's own establish for g+1 begins.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
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

// pendingConn is an inbound handshake for the next generation, parked until
// this process shrinks too.
type pendingConn struct {
	rc      rawConn
	typ     byte
	payload []byte
}

// registration is a decoded ftRegister.
type registration struct {
	gen       uint32
	orig      int
	worldSize int
	build     string
	addr      string
	deadMask  uint64
	rc        rawConn
}

// helloConn is a decoded, acked ftHello.
type helloConn struct {
	orig int
	rc   rawConn
}

func encodeRegister(gen uint32, orig, worldSize int, build, addr string, deadMask uint64) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(orig))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(worldSize))
	buf = binary.LittleEndian.AppendUint64(buf, deadMask)
	buf = appendStr(buf, build)
	buf = appendStr(buf, addr)
	return buf
}

func decodeRegister(p []byte) (registration, error) {
	c := cursor{p: p}
	r := registration{gen: c.u32()}
	r.orig = int(c.u32())
	r.worldSize = int(c.u32())
	r.deadMask = c.u64()
	r.build = c.str()
	r.addr = c.str()
	return r, c.err
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

func encodeHello(gen uint32, orig int, build string) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(orig))
	return appendStr(buf, build)
}

func decodeHello(p []byte) (gen uint32, orig int, build string, err error) {
	c := cursor{p: p}
	gen = c.u32()
	orig = int(c.u32())
	build = c.str()
	return gen, orig, build, c.err
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

// routeInbound reads one handshake frame off a fresh inbound connection
// (bounded by the connect deadline) and routes it.
func (e *Endpoint) routeInbound(c net.Conn, regCh chan registration, helloCh chan helloConn) {
	rc := newRawConn(c)
	_ = c.SetReadDeadline(time.Now().Add(e.opt.ConnectDeadline))
	typ, payload, wire, err := readFrame(rc.br)
	if err != nil {
		_ = c.Close()
		return
	}
	e.met.AddRecv(wire)
	_ = c.SetReadDeadline(time.Time{})
	e.routeFrame(rc, typ, payload, regCh, helloCh)
}

// routeFrame validates and dispatches one handshake frame. regCh/helloCh
// are non-nil while this endpoint is in its establish phase; frames for the
// next generation are parked as pending for the successor endpoint.
func (e *Endpoint) routeFrame(rc rawConn, typ byte, payload []byte, regCh chan registration, helloCh chan helloConn) {
	switch typ {
	case ftRegister:
		reg, err := decodeRegister(payload)
		if err != nil {
			e.reject(rc, fmt.Sprintf("malformed registration: %v", err))
			return
		}
		reg.rc = rc
		if reg.build != e.opt.BuildTag {
			e.reject(rc, fmt.Sprintf("build tag %q, this job runs %q", reg.build, e.opt.BuildTag))
			return
		}
		if reg.worldSize != e.opt.WorldSize {
			e.reject(rc, fmt.Sprintf("world size %d, this job has %d", reg.worldSize, e.opt.WorldSize))
			return
		}
		switch {
		case reg.gen == e.gen && regCh != nil && e.orig == 0:
			select {
			case regCh <- reg:
			default:
				e.reject(rc, "registration queue overflow")
			}
		case reg.gen == e.gen+1 && e.orig == 0:
			// A survivor shrank before we did: park it for our successor
			// and adopt its failure report now, so our own abort (if it has
			// not tripped yet) happens immediately.
			e.park(pendingConn{rc: rc, typ: typ, payload: payload})
			e.applyDeadMask(reg.deadMask, fmt.Sprintf("reported by orig %d registering for generation %d", reg.orig, reg.gen))
		default:
			e.reject(rc, fmt.Sprintf("not accepting registrations for generation %d (at %d)", reg.gen, e.gen))
		}
	case ftHello:
		gen, orig, build, err := decodeHello(payload)
		if err != nil {
			e.reject(rc, fmt.Sprintf("malformed hello: %v", err))
			return
		}
		if build != e.opt.BuildTag {
			e.reject(rc, fmt.Sprintf("build tag %q, this job runs %q", build, e.opt.BuildTag))
			return
		}
		switch {
		case gen == e.gen && helloCh != nil:
			_ = rc.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
			n, err := writeFrame(rc.c, ftAck, binary.LittleEndian.AppendUint32(nil, gen), false)
			if err != nil {
				_ = rc.c.Close()
				return
			}
			e.met.AddSent(n)
			select {
			case helloCh <- helloConn{orig: orig, rc: rc}:
			default:
				_ = rc.c.Close()
			}
		case gen == e.gen+1:
			e.park(pendingConn{rc: rc, typ: typ, payload: payload})
		default:
			e.reject(rc, fmt.Sprintf("not accepting hellos for generation %d (at %d)", gen, e.gen))
		}
	default:
		_ = rc.c.Close()
	}
}

// park holds a next-generation handshake for the successor endpoint. Once
// the pending list has been handed over (takePending), nobody would ever
// read a late arrival — a routeInbound that was mid-read when Shrink took
// the list — so it is hung up on instead: the dialer redials whole attempts
// and reaches the successor's sink.
func (e *Endpoint) park(p pendingConn) {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	if e.handedOver {
		_ = p.rc.c.Close()
		return
	}
	e.pending = append(e.pending, p)
}

func (e *Endpoint) takePending() []*pendingConn {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	out := make([]*pendingConn, 0, len(e.pending))
	for i := range e.pending {
		p := e.pending[i]
		out = append(out, &p)
	}
	e.pending = nil
	e.handedOver = true
	return out
}

// establish runs the rendezvous + mesh for this endpoint's generation:
// registration (or registration collection, on the coordinator), pairwise
// mesh dials, connection adoption and the initial barrier. The whole
// sequence is bounded by deadline. inherited carries handshakes that
// arrived at the previous generation's listener early.
func (e *Endpoint) establish(deadline time.Time, inherited []*pendingConn) error {
	regCh := make(chan registration, maxWorldSize)
	helloCh := make(chan helloConn, maxWorldSize)
	e.host.setSink(func(c net.Conn) { e.routeInbound(c, regCh, helloCh) })
	for _, p := range inherited {
		go e.routeFrame(p.rc, p.typ, p.payload, regCh, helloCh)
	}

	conns := make(map[int]rawConn) // by original rank
	addrs := map[int]string{e.orig: e.Addr()}
	if e.orig == 0 {
		if err := e.collectRegistrations(deadline, regCh, conns, addrs); err != nil {
			return err
		}
	} else {
		if err := e.register(deadline, conns, addrs); err != nil {
			return err
		}
		if err := e.mesh(deadline, helloCh, conns, addrs); err != nil {
			return err
		}
	}
	e.adopt(conns)
	e.host.setSink(func(c net.Conn) { e.routeInbound(c, nil, nil) })
	if err := e.Rendezvous(nil); err != nil {
		return fmt.Errorf("tcptransport: generation %d ready barrier: %w", e.gen, err)
	}
	e.opt.logf("tcptransport: rank %d (orig %d) generation %d live: %d member(s)", e.rank, e.orig, e.gen, e.size)
	return nil
}

// collectRegistrations is the coordinator half of the handshake: wait for
// exactly the expected survivors, validate their failure reports against
// the membership this generation was built over, seal and send the roster.
func (e *Endpoint) collectRegistrations(deadline time.Time, regCh chan registration, conns map[int]rawConn, addrs map[int]string) error {
	want := make(map[int]bool)
	for _, orig := range e.live {
		if orig != e.orig {
			want[orig] = true
		}
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for len(want) > 0 {
		select {
		case reg := <-regCh:
			if reg.deadMask&e.liveMask() != 0 {
				e.reject(reg.rc, "inconsistent membership: your dead set names a live member")
				return fmt.Errorf("tcptransport: orig %d reports dead mask %#x overlapping live members %#x — views diverged, cannot re-mesh",
					reg.orig, reg.deadMask, e.liveMask())
			}
			if !want[reg.orig] {
				e.reject(reg.rc, fmt.Sprintf("rank %d is not an expected member of generation %d", reg.orig, e.gen))
				continue
			}
			delete(want, reg.orig)
			conns[reg.orig] = reg.rc
			addrs[reg.orig] = reg.addr
		case <-timer.C:
			missing := make([]int, 0, len(want))
			for orig := range want {
				missing = append(missing, orig)
			}
			return fmt.Errorf("tcptransport: generation %d: rank(s) %v did not register within %v",
				e.gen, missing, e.opt.ConnectDeadline)
		}
	}
	roster := encodeRoster(e.gen, e.live, addrs)
	for orig, rc := range conns {
		_ = rc.c.SetWriteDeadline(time.Now().Add(minDuration(10*time.Second, time.Until(deadline))))
		n, err := writeFrame(rc.c, ftRoster, roster, false)
		if err != nil {
			return fmt.Errorf("tcptransport: sending roster to orig %d: %w", orig, err)
		}
		e.met.AddSent(n)
	}
	return nil
}

// register is the member half: dial the coordinator (retrying whole
// attempts — a connection dropped during the handshake window is redialed,
// a rejection is fatal) and hold the connection as the coordinator link.
func (e *Endpoint) register(deadline time.Time, conns map[int]rawConn, addrs map[int]string) error {
	payload := encodeRegister(e.gen, e.orig, e.opt.WorldSize, e.opt.BuildTag, e.Addr(), e.deadMask)
	var lastErr error
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		if attempt > 0 {
			e.met.IncReconnect()
			time.Sleep(minDuration(100*time.Millisecond, time.Until(deadline)))
		}
		c, err := dialRetry(&e.opt, e.met, e.opt.CoordinatorAddr, deadline)
		if err != nil {
			return err
		}
		rc := newRawConn(c)
		_ = c.SetWriteDeadline(time.Now().Add(minDuration(10*time.Second, time.Until(deadline))))
		if n, err := writeFrame(c, ftRegister, payload, false); err != nil {
			lastErr = err
			_ = c.Close()
			continue
		} else {
			e.met.AddSent(n)
		}
		_ = c.SetReadDeadline(deadline)
		typ, body, wire, err := readFrame(rc.br)
		if err != nil {
			// The coordinator may be mid-shrink (listener sink swapped) —
			// redial unless the overall deadline has passed.
			lastErr = err
			_ = c.Close()
			continue
		}
		e.met.AddRecv(wire)
		_ = c.SetReadDeadline(time.Time{})
		switch typ {
		case ftReject:
			_ = c.Close()
			return fmt.Errorf("tcptransport: coordinator rejected rank %d (orig) for generation %d: %s", e.orig, e.gen, body)
		case ftRoster:
			gen, live, rosterAddrs, derr := decodeRoster(body)
			if derr != nil || gen != e.gen {
				_ = c.Close()
				return fmt.Errorf("tcptransport: bad roster for generation %d: %v", e.gen, derr)
			}
			if !equalInts(live, e.live) {
				_ = c.Close()
				return fmt.Errorf("tcptransport: membership mismatch: coordinator sealed %v, this rank expected %v — views diverged", live, e.live)
			}
			for orig, addr := range rosterAddrs {
				addrs[orig] = addr
			}
			conns[0] = rc
			return nil
		default:
			lastErr = fmt.Errorf("unexpected frame type %d awaiting roster", typ)
			_ = c.Close()
			continue
		}
	}
	return fmt.Errorf("tcptransport: registering with coordinator %s for generation %d: deadline exceeded: %w",
		e.opt.CoordinatorAddr, e.gen, lastErr)
}

// mesh completes the pairwise links: dial every lower-ranked member (except
// the coordinator, already connected) with hello/ack, and accept hellos
// from every higher-ranked member.
func (e *Endpoint) mesh(deadline time.Time, helloCh chan helloConn, conns map[int]rawConn, addrs map[int]string) error {
	var expectHigher int
	for _, orig := range e.live {
		switch {
		case orig > e.orig:
			expectHigher++
		case orig != 0 && orig < e.orig:
			rc, err := e.dialPeer(orig, addrs[orig], deadline)
			if err != nil {
				return err
			}
			conns[orig] = rc
		}
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for have := 0; have < expectHigher; {
		select {
		case h := <-helloCh:
			if _, dup := conns[h.orig]; dup || h.orig <= e.orig {
				_ = h.rc.c.Close()
				continue
			}
			conns[h.orig] = h.rc
			have++
		case <-timer.C:
			var missing []int
			for _, orig := range e.live {
				if orig > e.orig {
					if _, ok := conns[orig]; !ok {
						missing = append(missing, orig)
					}
				}
			}
			return fmt.Errorf("tcptransport: generation %d mesh: no hello from rank(s) %v within %v",
				e.gen, missing, e.opt.ConnectDeadline)
		}
	}
	return nil
}

// dialPeer connects to one lower-ranked member, retrying whole hello/ack
// attempts under the deadline.
func (e *Endpoint) dialPeer(orig int, addr string, deadline time.Time) (rawConn, error) {
	if addr == "" {
		return rawConn{}, fmt.Errorf("tcptransport: no address for orig rank %d in roster", orig)
	}
	hello := encodeHello(e.gen, e.orig, e.opt.BuildTag)
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
		if n, werr := writeFrame(c, ftHello, hello, false); werr != nil {
			lastErr = werr
			_ = c.Close()
			continue
		} else {
			e.met.AddSent(n)
		}
		_ = c.SetReadDeadline(deadline)
		typ, body, wire, rerr := readFrame(rc.br)
		if rerr != nil {
			lastErr = rerr
			_ = c.Close()
			continue
		}
		e.met.AddRecv(wire)
		_ = c.SetReadDeadline(time.Time{})
		switch typ {
		case ftAck:
			return rc, nil
		case ftReject:
			_ = c.Close()
			return rawConn{}, fmt.Errorf("tcptransport: orig %d rejected mesh hello: %s", orig, body)
		default:
			lastErr = fmt.Errorf("unexpected frame type %d awaiting ack", typ)
			_ = c.Close()
		}
	}
	return rawConn{}, fmt.Errorf("tcptransport: meshing with orig %d at %s: deadline exceeded: %w", orig, addr, lastErr)
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
// re-meshes the survivors as generation+1, renumbered densely. dead lists
// dense ranks of this generation; ranks this endpoint already knows dead
// are unioned in. The coordinator's death is unrecoverable (there is no
// leader election — kgetrain restarts the job from the last checkpoint
// instead), as is being named dead oneself (the peers have moved on).
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
			if orig == 0 {
				return nil, fmt.Errorf("tcptransport: the coordinator (original rank 0) died; re-mesh is impossible — restart the job from the last checkpoint")
			}
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
	deadline := time.Now().Add(e.opt.ConnectDeadline)
	if err := succ.establish(deadline, pend); err != nil {
		e.host.close()
		for _, p := range pend {
			_ = p.rc.c.Close()
		}
		return nil, err
	}
	return succ, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
