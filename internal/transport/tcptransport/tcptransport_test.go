package tcptransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kgedist/internal/transport"
)

// watchdog fails the test with a goroutine dump if fn hangs — these tests
// exercise exactly the paths whose failure mode is a silent hang.
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
		t.Fatalf("%s: hung for %v; goroutine dump:\n%s", name, timeout, buf[:n])
	}
}

// --- wire format ---

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 1<<16)}
	for i, p := range payloads {
		var buf bytes.Buffer
		wrote, err := writeFrame(&buf, ftData, p, false)
		if err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		typ, got, read, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if typ != ftData || !bytes.Equal(got, p) || wrote != read {
			t.Fatalf("case %d: typ %d len %d wire %d/%d", i, typ, len(got), wrote, read)
		}
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("some payload bytes")} {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, ftData, payload, true); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, _, _, err := readFrame(&buf); !errors.Is(err, errCRC) {
			t.Fatalf("payload len %d: got %v, want errCRC", len(payload), err)
		}
	}
}

func TestFrameRejectsBadHeader(t *testing.T) {
	var good bytes.Buffer
	if _, err := writeFrame(&good, ftData, []byte("ok"), false); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mangle func(b []byte)
		want   string
	}{
		{"magic", func(b []byte) { b[0] = 0xFF }, "magic"},
		{"version", func(b []byte) { b[2] = ProtocolVersion + 1 }, "protocol version"},
		{"length", func(b []byte) { b[4], b[5], b[6], b[7] = 0xFF, 0xFF, 0xFF, 0xFF }, "exceeds"},
	}
	for _, tc := range cases {
		raw := append([]byte(nil), good.Bytes()...)
		tc.mangle(raw)
		_, _, _, err := readFrame(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestMessageCodec(t *testing.T) {
	msgs := []transport.Message{
		{},
		{Seq: 7, F32: []float32{1.5, -2.25}},
		{Seq: 8, I32: []int32{-1, 0, 1 << 30}},
		{Seq: 9, Raw: []byte{0, 1, 2}},
		{Seq: 10, F64: -0.125},
		{Seq: 11, F32: []float32{3}, I32: []int32{4}, Raw: []byte{5}, F64: 6},
	}
	for i, m := range msgs {
		got, err := decodeMessage(appendMessage(nil, m))
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.Seq != m.Seq || got.F64 != m.F64 ||
			len(got.F32) != len(m.F32) || len(got.I32) != len(m.I32) || len(got.Raw) != len(m.Raw) {
			t.Fatalf("msg %d: round-trip mismatch: %+v vs %+v", i, got, m)
		}
		for j := range m.F32 {
			if got.F32[j] != m.F32[j] {
				t.Fatalf("msg %d: F32[%d] %v != %v", i, j, got.F32[j], m.F32[j])
			}
		}
	}
	// Truncation at every prefix must error, never panic or misdecode.
	full := appendMessage(nil, msgs[5])
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeMessage(full[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(full))
		}
	}
}

// --- dial helpers ---

// listeners pre-binds p localhost listeners so every test knows the
// coordinator address before any endpoint dials.
func listeners(t *testing.T, p int) []net.Listener {
	t.Helper()
	lns := make([]net.Listener, p)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
	}
	return lns
}

func testOptions(rank, p int, lns []net.Listener) Options {
	return Options{
		Rank:              rank,
		WorldSize:         p,
		CoordinatorAddr:   lns[0].Addr().String(),
		Listener:          lns[rank],
		ConnectDeadline:   30 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
	}
}

// dialWorld brings up a full in-process world.
func dialWorld(t *testing.T, p int, mutate func(rank int, o *Options)) []*Endpoint {
	t.Helper()
	lns := listeners(t, p)
	eps := make([]*Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := testOptions(i, p, lns)
			if mutate != nil {
				mutate(i, &o)
			}
			eps[i], errs[i] = Dial(o)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("dial rank %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		watchdog(t, "world close", 20*time.Second, func() {
			var cwg sync.WaitGroup
			for _, ep := range eps {
				if ep == nil {
					continue
				}
				cwg.Add(1)
				go func(ep *Endpoint) {
					defer cwg.Done()
					_ = ep.Close()
				}(ep)
			}
			cwg.Wait()
		})
	})
	return eps
}

// --- handshake validation ---

// TestHandshakeRejects drives each misconfiguration through a real
// leader and asserts the dialer is refused with a reason naming the
// mismatch — never meshed, never hung.
func TestHandshakeRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(o *Options)
		want   string
	}{
		{"build tag", func(o *Options) { o.BuildTag = "stale-binary" }, "build tag"},
		{"world size", func(o *Options) { o.WorldSize = 3 }, "world size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			watchdog(t, tc.name, 30*time.Second, func() {
				lns := listeners(t, 2)
				var wg sync.WaitGroup
				var coordEp *Endpoint
				wg.Add(1)
				go func() {
					defer wg.Done()
					o := testOptions(0, 2, lns)
					o.ConnectDeadline = 4 * time.Second
					coordEp, _ = Dial(o) // fails too: its expected peer never joins
				}()
				o := testOptions(1, 2, lns)
				o.ConnectDeadline = 4 * time.Second
				tc.mutate(&o)
				ep, err := Dial(o)
				if err == nil {
					_ = ep.Close()
					t.Fatalf("misconfigured dial succeeded")
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("got %v, want error containing %q", err, tc.want)
				}
				wg.Wait()
				if coordEp != nil {
					_ = coordEp.Close()
				}
			})
		})
	}
}

// TestHandshakeRejectsImpostorRank: a JOIN claiming a rank outside
// the expected membership (a stale worker from a previous job, a double
// launch) is refused by name, and the impostor reads the reason.
func TestHandshakeRejectsImpostorRank(t *testing.T) {
	watchdog(t, "impostor rank", 30*time.Second, func() {
		lns := listeners(t, 2)
		coordErr := make(chan error, 1)
		go func() {
			o := testOptions(0, 2, lns)
			o.ConnectDeadline = 4 * time.Second
			ep, err := Dial(o) // real rank 1 never joins, so this errors too
			if ep != nil {
				_ = ep.Close()
			}
			coordErr <- err
		}()
		c, err := net.Dial("tcp", lns[0].Addr().String())
		if err != nil {
			t.Fatalf("impostor dial: %v", err)
		}
		defer c.Close()
		reg := encodeJoin(join{gen: 0, orig: 7, worldSize: 2, build: "dev", addr: "127.0.0.1:1"})
		if _, err := writeFrame(c, ftJoin, reg, false); err != nil {
			t.Fatalf("impostor join: %v", err)
		}
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, payload, _, err := readFrame(c)
		if err != nil || typ != ftReject {
			t.Fatalf("impostor answer: typ %d err %v, want ftReject", typ, err)
		}
		if !strings.Contains(string(payload), "not an expected member") {
			t.Fatalf("reject reason %q", payload)
		}
		if err := <-coordErr; err == nil || !strings.Contains(err.Error(), "did not join") {
			t.Fatalf("coordinator: got %v, want missing-member error", err)
		}
	})
}

// TestHandshakeRejectsDivergedViews: a JOIN whose dead set names a live
// member is refused by name, and the acceptor fails at once rather than
// waiting out its deadline, since no wait can reconcile the two views.
func TestHandshakeRejectsDivergedViews(t *testing.T) {
	watchdog(t, "diverged views", 30*time.Second, func() {
		lns := listeners(t, 2)
		coordErr := make(chan error, 1)
		go func() {
			o := testOptions(0, 2, lns)
			ep, err := Dial(o)
			if ep != nil {
				_ = ep.Close()
			}
			coordErr <- err
		}()
		c, err := net.Dial("tcp", lns[0].Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		j := encodeJoin(join{orig: 1, worldSize: 2, build: "dev", addr: lns[1].Addr().String(), deadMask: 1})
		if _, err := writeFrame(c, ftJoin, j, false); err != nil {
			t.Fatalf("join: %v", err)
		}
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, payload, _, err := readFrame(c)
		if err != nil || typ != ftReject || !strings.Contains(string(payload), "views diverged") {
			t.Fatalf("answer: typ %d %q err %v, want a refusal naming the diverged views", typ, payload, err)
		}
		start := time.Now()
		if err := <-coordErr; err == nil || !strings.Contains(err.Error(), "views diverged") {
			t.Fatalf("coordinator: got %v, want a diverged-views error", err)
		}
		if waited := time.Since(start); waited > 10*time.Second {
			t.Fatalf("coordinator failed after %v, not at once", waited)
		}
	})
}

// TestHandshakeRejectsProtocolVersion: a JOIN framed in another protocol
// version is answered with a refusal the dialler can read, naming the
// version, instead of a bare hang-up it would retry until its deadline.
func TestHandshakeRejectsProtocolVersion(t *testing.T) {
	eps := dialWorld(t, 2, nil)
	watchdog(t, "protocol version", 30*time.Second, func() {
		c, err := net.Dial("tcp", eps[0].Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		var frame bytes.Buffer
		if _, err := writeFrame(&frame, ftJoin, encodeJoin(join{orig: 1, worldSize: 2, build: "dev"}), false); err != nil {
			t.Fatal(err)
		}
		raw := frame.Bytes()
		raw[2] = ProtocolVersion - 1
		binary.LittleEndian.PutUint32(raw[len(raw)-trailerLen:], crc32.ChecksumIEEE(raw[:len(raw)-trailerLen]))
		if _, err := c.Write(raw); err != nil {
			t.Fatalf("write: %v", err)
		}
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, payload, _, err := readFrame(c)
		if err != nil || typ != ftReject || !strings.Contains(string(payload), "protocol version") {
			t.Fatalf("answer: typ %d %q err %v, want a refusal naming the protocol version", typ, payload, err)
		}
	})
}

// TestRendezvousTimeouts is the table for the latent-watchdog fix: every
// flavor of "a peer never shows up during the connect/handshake window"
// must surface as a bounded error naming the missing party — before this
// deadline existed, each of these scenarios hung forever.
func TestRendezvousTimeouts(t *testing.T) {
	const deadline = 2 * time.Second
	cases := []struct {
		name string
		run  func(t *testing.T, lns []net.Listener) error
		want string
	}{
		{
			// The coordinator address answers nothing: rank 1's join can
			// never complete.
			name: "missing coordinator",
			run: func(t *testing.T, lns []net.Listener) error {
				o := testOptions(1, 2, lns)
				o.ConnectDeadline = deadline
				_ = lns[0].Close() // nobody home at the coordinator address
				ep, err := Dial(o)
				if ep != nil {
					_ = ep.Close()
				}
				return err
			},
			want: "deadline exceeded",
		},
		{
			// The coordinator waits for a rank that never joins.
			name: "missing registrant",
			run: func(t *testing.T, lns []net.Listener) error {
				o := testOptions(0, 2, lns)
				o.ConnectDeadline = deadline
				ep, err := Dial(o)
				if ep != nil {
					_ = ep.Close()
				}
				return err
			},
			want: "rank(s) [1] did not join",
		},
		{
			// A rank joins the coordinator (so the roster seals) but never
			// joins rank 1: the peer awaiting it must time out, not block.
			name: "missing mesh peer",
			run: func(t *testing.T, lns []net.Listener) error {
				errCh := make(chan error, 1)
				go func() { // rank 1: the victim awaiting rank 2's join
					o := testOptions(1, 3, lns)
					o.ConnectDeadline = deadline
					ep, err := Dial(o)
					if ep != nil {
						_ = ep.Close()
					}
					errCh <- err
				}()
				go func() { // coordinator
					o := testOptions(0, 3, lns)
					o.ConnectDeadline = deadline
					ep, err := Dial(o)
					if ep != nil {
						_ = ep.Close()
					}
					if err == nil {
						t.Error("coordinator completed with a rank that never meshed")
					}
				}()
				// Fake rank 2: joins the coordinator correctly, reads the
				// roster, then goes silent instead of joining rank 1.
				c, err := net.Dial("tcp", lns[0].Addr().String())
				if err != nil {
					t.Fatalf("fake rank 2 dial: %v", err)
				}
				defer c.Close()
				reg := encodeJoin(join{gen: 0, orig: 2, worldSize: 3, build: "dev", addr: lns[2].Addr().String()})
				if _, err := writeFrame(c, ftJoin, reg, false); err != nil {
					t.Fatalf("fake rank 2 join: %v", err)
				}
				_ = c.SetReadDeadline(time.Now().Add(deadline))
				if typ, _, _, err := readFrame(c); err != nil || typ != ftRoster {
					t.Fatalf("fake rank 2 roster: typ %d err %v", typ, err)
				}
				return <-errCh
			},
			want: "rank(s) [2] did not join orig 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			watchdog(t, tc.name, 30*time.Second, func() {
				start := time.Now()
				err := tc.run(t, listeners(t, 3))
				if err == nil {
					t.Fatalf("dial succeeded with a missing peer")
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("got %v, want error containing %q", err, tc.want)
				}
				// Bounded: the deadline plus scheduling slack, not forever.
				if elapsed := time.Since(start); elapsed > deadline+10*time.Second {
					t.Fatalf("error took %v, far past the %v deadline", elapsed, deadline)
				}
			})
		})
	}
}

// --- fault injection ---

// TestFaultInjection drives each real-socket failure mode and asserts the
// victim's peers reach the same typed verdict the simnet fault plans
// produce, with the right detector credited in the metrics.
func TestFaultInjection(t *testing.T) {
	cases := []struct {
		name    string
		fault   Fault
		metric  func(m *transport.Metrics) int64
		detects string
	}{
		{"sever", FaultSever, nil, "connection close"},
		{"stall", FaultStall, func(m *transport.Metrics) int64 { return m.HeartbeatMisses.Value() }, "read deadline"},
		{"corrupt", FaultCorrupt, func(m *transport.Metrics) int64 { return m.CRCErrors.Value() }, "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eps := dialWorld(t, 3, nil)
			watchdog(t, tc.name, 30*time.Second, func() {
				// Rank 1 sabotages its link to rank 0, then (for corrupt)
				// sends the frame that carries the damage.
				eps[1].Inject(tc.fault, 0)
				if tc.fault == FaultCorrupt {
					if err := eps[1].Send(0, transport.Message{Seq: 1, F32: []float32{1, 2, 3}}); err != nil {
						t.Fatalf("send: %v", err)
					}
				}
				// Rank 0 blocks on a receive; the fault must surface as the
				// typed failure, not a hang or a mangled message.
				_, err := eps[0].Recv(1, 20*time.Second)
				var rfe *transport.RankFailedError
				if !errors.As(err, &rfe) {
					t.Fatalf("recv returned %v, want *RankFailedError", err)
				}
				found := false
				for _, r := range rfe.Ranks {
					if r == 1 {
						found = true
					}
				}
				if !found {
					t.Fatalf("dead set %v does not name rank 1", rfe.Ranks)
				}
				if tc.metric != nil {
					if got := tc.metric(eps[0].Metrics()); got < 1 {
						t.Errorf("%s detector metric is %d, want >= 1", tc.detects, got)
					}
				}
			})
		})
	}
}

// --- shrink / re-mesh ---

// TestShrinkRemesh kills one rank for real (connection close), lets the
// survivors reach the shared verdict, re-meshes them as generation 1, and
// proves the new fabric moves traffic and barriers.
func TestShrinkRemesh(t *testing.T) {
	eps := dialWorld(t, 3, nil)
	watchdog(t, "shrink remesh", 60*time.Second, func() {
		// Rank 2 "crashes": its connections drop without byes.
		eps[2].Inject(FaultSever, 0)
		eps[2].Inject(FaultSever, 1)
		// Both survivors observe the failure.
		for _, r := range []int{0, 1} {
			if _, err := eps[r].Recv(2, 10*time.Second); err == nil {
				t.Fatalf("rank %d: recv from severed peer succeeded", r)
			}
		}
		// Re-mesh concurrently (registration blocks until both arrive).
		var wg sync.WaitGroup
		succ := make([]transport.Endpoint, 2)
		errs := make([]error, 2)
		for i, r := range []int{0, 1} {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				succ[i], errs[i] = eps[r].Shrink([]int{2})
			}(i, r)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("shrink %d: %v", i, err)
			}
		}
		defer succ[0].Close()
		defer succ[1].Close()
		s0 := succ[0].(*Endpoint)
		if s0.Size() != 2 || s0.Generation() != 1 || s0.Rank() != 0 {
			t.Fatalf("successor: size %d gen %d rank %d", s0.Size(), s0.Generation(), s0.Rank())
		}
		// The new fabric works: a message and a barrier.
		if err := succ[0].Send(1, transport.Message{Seq: 9, F64: 2.75}); err != nil {
			t.Fatalf("send on successor: %v", err)
		}
		m, err := succ[1].Recv(0, 10*time.Second)
		if err != nil || m.F64 != 2.75 {
			t.Fatalf("recv on successor: %v %v", m, err)
		}
		barErr := make(chan error, 1)
		go func() { barErr <- succ[1].Rendezvous(nil) }()
		if err := succ[0].Rendezvous(nil); err != nil {
			t.Fatalf("rendezvous on successor: %v", err)
		}
		if err := <-barErr; err != nil {
			t.Fatalf("peer rendezvous on successor: %v", err)
		}
	})
}

// TestShrinkCoordinatorDeath: losing original rank 0, the first
// generation's leader, shrinks like losing any other rank — generation 1 is
// led by original rank 1, dialled at its roster address, and carries
// traffic and barriers.
func TestShrinkCoordinatorDeath(t *testing.T) {
	eps := dialWorld(t, 3, nil)
	watchdog(t, "coordinator death", 60*time.Second, func() {
		var wg sync.WaitGroup
		succ := make([]transport.Endpoint, 2)
		errs := make([]error, 2)
		for i, ep := range eps[1:] {
			wg.Add(1)
			go func(i int, ep *Endpoint) {
				defer wg.Done()
				ep.FailRank(0)
				succ[i], errs[i] = ep.Shrink([]int{0})
			}(i, ep)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("shrink orig %d: %v", i+1, err)
			}
		}
		defer succ[0].Close()
		defer succ[1].Close()
		for i, s := range succ {
			s := s.(*Endpoint)
			if s.Size() != 2 || s.Generation() != 1 || s.Rank() != i || s.live[0] != 1 {
				t.Fatalf("successor of orig %d: size %d gen %d rank %d live %v", i+1, s.Size(), s.Generation(), s.Rank(), s.live)
			}
		}
		if err := succ[1].Send(0, transport.Message{Seq: 3, F64: -1.5}); err != nil {
			t.Fatalf("send on successor: %v", err)
		}
		if m, err := succ[0].Recv(1, 10*time.Second); err != nil || m.F64 != -1.5 {
			t.Fatalf("recv on successor: %v %v", m, err)
		}
		barErr := make(chan error, 1)
		go func() { barErr <- succ[1].Rendezvous(nil) }()
		if err := succ[0].Rendezvous(nil); err != nil {
			t.Fatalf("rendezvous on successor: %v", err)
		}
		if err := <-barErr; err != nil {
			t.Fatalf("peer rendezvous on successor: %v", err)
		}
	})
}

// TestParkAfterHandOverHangsUp: a next-generation handshake that reaches the
// old endpoint after Shrink took the pending list must be hung up on, not
// parked where nobody reads it — the dialer redials and finds the successor.
// Parked forever, it made the survivor wait out the whole connect deadline
// for a roster (TestProcessWorldShrinkOverTCP under CPU load).
func TestParkAfterHandOverHangsUp(t *testing.T) {
	e := newEndpoint(Options{}, nil, transport.NewMetrics(), 0, 0, []int{0, 1})
	a1, a2 := net.Pipe()
	defer a2.Close()
	e.park(join{rc: newRawConn(a1)})
	if got := e.takePending(); len(got) != 1 {
		t.Fatalf("takePending returned %d handshakes, want the 1 parked before hand-over", len(got))
	}
	b1, b2 := net.Pipe()
	defer b2.Close()
	e.park(join{rc: newRawConn(b1)})
	_ = b2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := b2.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("late handshake read returned %v, want the hang-up's EOF", err)
	}
	if got := e.takePending(); len(got) != 0 {
		t.Fatalf("late handshake was parked (%d pending)", len(got))
	}
}

// TestShrinkSelfDead: a rank its peers declared dead must not rejoin.
func TestShrinkSelfDead(t *testing.T) {
	eps := dialWorld(t, 2, nil)
	watchdog(t, "self dead", 20*time.Second, func() {
		eps[0].FailRank(1)
		if _, err := eps[1].Shrink([]int{1}); err == nil || !strings.Contains(err.Error(), "declared dead") {
			t.Fatalf("got %v, want self-dead error", err)
		}
	})
}

// --- shutdown ---

// TestCloseAfterBarrierReleasesEveryRank: a rank that leaves its last
// barrier and closes at once must still deliver the token it queued for a
// slower peer. The shutdown flush used to cover only the control queue, so
// the token could be dropped behind a clean bye and the peer waited in
// Rendezvous forever, with no failure verdict to wake it.
func TestCloseAfterBarrierReleasesEveryRank(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 40
	}
	for round := 0; round < rounds; round++ {
		eps := dialWorld(t, 3, nil)
		watchdog(t, "rendezvous then close", 20*time.Second, func() {
			var wg sync.WaitGroup
			for _, ep := range eps {
				wg.Add(1)
				go func(ep *Endpoint) {
					defer wg.Done()
					if err := ep.Rendezvous(nil); err != nil {
						t.Errorf("round %d rank %d: rendezvous: %v", round, ep.Rank(), err)
					}
					_ = ep.Close()
				}(ep)
			}
			wg.Wait()
		})
		if t.Failed() {
			return
		}
	}
}

// --- health metrics ---

// TestMetricsFlow: traffic and heartbeats feed the counters and the RTT
// histogram, and the Prometheus rendering carries them all.
func TestMetricsFlow(t *testing.T) {
	eps := dialWorld(t, 2, nil)
	watchdog(t, "metrics", 30*time.Second, func() {
		if err := eps[0].Send(1, transport.Message{Seq: 1, F32: make([]float32, 1024)}); err != nil {
			t.Fatalf("send: %v", err)
		}
		if _, err := eps[1].Recv(0, 10*time.Second); err != nil {
			t.Fatalf("recv: %v", err)
		}
		// A few heartbeat intervals so pings and pongs flow.
		time.Sleep(150 * time.Millisecond)
		m := eps[0].Metrics()
		if m.FramesSent.Value() == 0 || m.FramesRecv.Value() == 0 {
			t.Fatalf("frame counters empty: sent %d recv %d", m.FramesSent.Value(), m.FramesRecv.Value())
		}
		if m.BytesSent.Value() < 4*1024 {
			t.Fatalf("bytes sent %d, want at least the 4KiB payload", m.BytesSent.Value())
		}
		var buf bytes.Buffer
		m.WritePrometheus(&buf)
		out := buf.String()
		for _, want := range []string{
			"kgedist_transport_bytes_sent_total",
			"kgedist_transport_frames_received_total",
			`kgedist_transport_heartbeat_rtt_seconds_bucket{peer="1",le="+Inf"}`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("Prometheus output missing %q", want)
			}
		}
	})
}
