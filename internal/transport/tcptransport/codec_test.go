package tcptransport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"

	"kgedist/internal/pool"
	"kgedist/internal/transport"
)

// specialF32 are the float32 bit patterns a byte-view copy must carry
// unchanged: NaNs of both signs with quiet and signalling payloads, ±0,
// subnormals, ±Inf and ±MaxFloat32.
var specialF32 = []uint32{
	0x7fc00000, 0xffc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0xff800001, 0x7fbfffff,
	0x00000000, 0x80000000, 0x00000001, 0x807fffff, 0x00400000,
	0x7f800000, 0xff800000, 0x7f7fffff, 0xff7fffff, 0x3f800000, 0xbf800000,
}

// codecSections returns n-element F32, I32 and Raw sections cycling through
// the special values, or nil sections for n < 0.
func codecSections(n int) ([]float32, []int32, []byte) {
	if n < 0 {
		return nil, nil, nil
	}
	f32 := make([]float32, n)
	i32 := make([]int32, n)
	raw := make([]byte, n)
	for i := range f32 {
		f32[i] = math.Float32frombits(specialF32[i%len(specialF32)] ^ uint32(i/len(specialF32))<<8)
		i32[i] = int32(specialF32[(i+5)%len(specialF32)]) ^ int32(i)
		raw[i] = byte(i*7 + 1)
	}
	return f32, i32, raw
}

// TestDataFrameCodecMatchesReference holds the host's data-frame codec (the
// byte-view copies on a little-endian host) to the per-element loops: the
// same bytes out, and bit-identical messages back, nil-ness of every
// section and the clock included. An empty Raw section decodes to nil on
// both paths.
func TestDataFrameCodecMatchesReference(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 7, 8, 9, 384000} {
		f32, i32, raw := codecSections(n)
		for mask := 0; mask < 16; mask++ {
			m := transport.Message{Seq: uint64(n+2)<<8 | uint64(mask), F64: math.Copysign(0, -1)}
			if mask&1 != 0 {
				m.F32 = f32
			}
			if mask&2 != 0 {
				m.I32 = i32
			}
			if mask&4 != 0 {
				m.Raw = raw
				m.F64 = math.Float64frombits(0x7ff8000000000abc)
			}
			if mask&8 != 0 {
				m.Clock = 1234.5e-6 * float64(n+2)
			}
			ref := encodeMessage(nil, m, false)
			got := appendMessage(nil, m)
			if !bytes.Equal(got, ref) {
				t.Fatalf("n=%d mask=%d: encoding differs from the per-element loops", n, mask)
			}
			want, err := parseMessage(ref, false)
			if err != nil {
				t.Fatalf("n=%d mask=%d: reference decode: %v", n, mask, err)
			}
			dec, err := decodeMessage(got)
			if err != nil {
				t.Fatalf("n=%d mask=%d: decode: %v", n, mask, err)
			}
			if !sameMessage(dec, want) {
				t.Fatalf("n=%d mask=%d: decode differs from the reference decode", n, mask)
			}
			sent := m
			if len(sent.Raw) == 0 {
				sent.Raw = nil
			}
			if !sameMessage(dec, sent) {
				t.Fatalf("n=%d mask=%d: round trip changed the message", n, mask)
			}
		}
	}

	// A frame truncated inside its I32 section fails after its F32 section
	// came from the pool, and the error path hands that block back exactly
	// once. Had it been Put twice, the next two Gets would both return it:
	// two good frames decoded and held would share one backing array.
	if raceBuild {
		return // sync.Pool drops Puts at random under -race
	}
	f32, i32, _ := codecSections(1000)
	full := appendMessage(nil, transport.Message{Seq: 1, F32: f32, I32: i32})
	if _, err := decodeMessage(full[:len(full)-4]); err == nil {
		t.Fatal("a frame truncated inside its I32 section decoded")
	}
	good := appendMessage(nil, transport.Message{Seq: 2, F32: f32})
	a, errA := decodeMessage(good)
	b, errB := decodeMessage(good)
	if errA != nil || errB != nil {
		t.Fatalf("decode: %v, %v", errA, errB)
	}
	if &a.F32[0] == &b.F32[0] {
		t.Fatal("two held decodes share one F32 block: the error path Put it twice")
	}
	pool.PutF32(a.F32)
	pool.PutF32(b.F32)
}

// oldFrame is the frame as header, payload and trailer were once written by
// three separate Writes: the bytes the one-Write frame must reproduce.
func oldFrame(typ byte, payload []byte) []byte {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint16(hdr[0:2], frameMagic)
	hdr[2] = ProtocolVersion
	hdr[3] = typ
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, payload)
	out := append(hdr[:], payload...)
	return binary.LittleEndian.AppendUint32(out, crc)
}

// writeCounter records every Write it receives.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFrameBytesUnchanged: every frame type goes out in one Write whose
// bytes equal the old header/payload/trailer image, both through writeFrame
// and through the write loop's sealing of a reused scratch. FaultCorrupt
// flips exactly one payload bit on the wire (the checksum of an empty
// payload instead) and leaves the caller's bytes alone.
func TestFrameBytesUnchanged(t *testing.T) {
	data := appendMessage(nil, transport.Message{Seq: 9, F32: []float32{1, -2, float32(math.NaN())}, I32: []int32{-7}, Raw: []byte("r")})
	payloads := [][]byte{nil, {}, []byte("x"), binary.LittleEndian.AppendUint64(nil, 0x0123456789abcdef), data, bytes.Repeat([]byte{0xA5}, 1<<16+3)}
	scratch := make([]byte, 0, 7) // too small at first: sealing must regrow it
	for typ := byte(ftJoin); typ <= ftRegroup; typ++ {
		for i, p := range payloads {
			want := oldFrame(typ, p)
			var w writeCounter
			n, err := writeFrame(&w, typ, p, false)
			if err != nil {
				t.Fatal(err)
			}
			if w.writes != 1 || n != int64(len(want)) || !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("type %d payload %d: %d writes, %d bytes reported; frame equal to the old image: %v",
					typ, i, w.writes, n, bytes.Equal(w.Bytes(), want))
			}
			frame, err := sealFrame(append(openFrame(scratch), p...), typ, false)
			if err != nil || !bytes.Equal(frame, want) {
				t.Fatalf("type %d payload %d: sealed scratch differs from the old image (%v)", typ, i, err)
			}
			scratch = frame

			keep := slices.Clone(p)
			w.Reset()
			if _, err := writeFrame(&w, typ, p, true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p, keep) {
				t.Fatalf("type %d payload %d: corruption reached the caller's payload", typ, i)
			}
			got := w.Bytes()
			var flipped []int
			for b := range got {
				for x := got[b] ^ want[b]; x != 0; x &= x - 1 {
					flipped = append(flipped, b)
				}
			}
			switch {
			case len(p) > 0 && (len(flipped) != 1 || flipped[0] < headerLen || flipped[0] >= headerLen+len(p)):
				t.Fatalf("type %d payload %d: corrupt frame differs at bits in bytes %v, want one payload bit", typ, i, flipped)
			case len(p) == 0 && !bytes.Equal(got[:headerLen], want[:headerLen]):
				t.Fatalf("type %d: corrupt empty frame changed its header", typ)
			}
			if _, _, _, err := readFrame(&w); !errors.Is(err, errCRC) {
				t.Fatalf("type %d payload %d: corrupt frame read back as %v, want errCRC", typ, i, err)
			}
		}
	}
}

// TestFrameReaderReusesBuffer: frames read through one frameReader land in
// one buffer, which grows only for a larger frame.
func TestFrameReaderReusesBuffer(t *testing.T) {
	var w bytes.Buffer
	for _, n := range []int{64, 64, 16, 256, 200} {
		if _, err := writeFrame(&w, ftData, bytes.Repeat([]byte{byte(n)}, n), false); err != nil {
			t.Fatal(err)
		}
	}
	fr := frameReader{r: &w}
	var first *byte
	for i, n := range []int{64, 64, 16, 256, 200} {
		_, p, wire, err := fr.next()
		if err != nil || len(p) != n || wire != int64(headerLen+n+trailerLen) || p[n-1] != byte(n) {
			t.Fatalf("frame %d: len %d wire %d err %v", i, len(p), wire, err)
		}
		switch {
		case i == 0 || i == 3:
			first = &p[0]
		case &p[0] != first:
			t.Fatalf("frame %d (%d bytes) did not reuse the read buffer", i, n)
		}
	}
}

// TestPingEchoSurvivesBufferReuse drives a live read loop over an in-memory
// pipe: a large data frame, a ping, then another large data frame that
// overwrites the read buffer where the ping sat. The queued pong must still
// carry the ping's own 8 bytes, and both data frames arrive intact.
func TestPingEchoSurvivesBufferReuse(t *testing.T) {
	near, far := net.Pipe()
	e := newEndpoint(Options{HeartbeatTimeout: time.Minute}, nil, transport.NewMetrics(), 0, 0, []int{0, 1})
	pc := &peerConn{ep: e, dense: 1, orig: 1, c: near, br: bufio.NewReader(near), ctrl: make(chan wireFrame, 16)}
	e.conns = []*peerConn{nil, pc}
	e.inbox = []chan transport.Message{nil, make(chan transport.Message, 4)}
	e.barCh = []chan barToken{nil, make(chan barToken, 1)}
	e.wg.Add(1)
	go pc.readLoop()
	t.Cleanup(func() {
		_ = far.Close() // the loop reads EOF and exits
		e.teardown(false)
	})

	msgs := make([]transport.Message, 2)
	for i := range msgs {
		f32 := make([]float32, 1<<14)
		for j := range f32 {
			f32[j] = float32(i*len(f32) + j)
		}
		msgs[i] = transport.Message{Seq: uint64(0xEE00 + i), F32: f32}
	}
	ping := binary.LittleEndian.AppendUint64(nil, 0x1122334455667788)
	watchdog(t, "ping echo", 30*time.Second, func() {
		for _, f := range [][]byte{appendMessage(nil, msgs[0]), ping, appendMessage(nil, msgs[1])} {
			typ := byte(ftData)
			if len(f) == len(ping) {
				typ = ftPing
			}
			if _, err := writeFrame(far, typ, f, false); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		for i, want := range msgs {
			got := <-e.inbox[1]
			if !sameMessage(got, want) {
				t.Errorf("data frame %d arrived changed", i)
			}
			pool.PutF32(got.F32)
		}
		pong := <-pc.ctrl
		if pong.typ != ftPong || !bytes.Equal(pong.payload, ping) {
			t.Errorf("pong type %d payload %x, want the ping's %x", pong.typ, pong.payload, ping)
		}
	})
}

// dataFrameMessage is the benchmarks' and allocation tests' message: one
// dense all-reduce chunk's worth of float32s.
func dataFrameMessage(n int) transport.Message {
	f32, _, _ := codecSections(n)
	return transport.Message{Seq: 1, F32: f32}
}

// TestDataFrameSteadyStateAllocs: once the write scratch and the read
// buffer have grown, encoding and writing a data frame allocates nothing,
// and neither does reading and decoding one whose F32 goes back to the
// pool, nor one whose 4096-byte Raw section (an encoded all-reduce block)
// does.
func TestDataFrameSteadyStateAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	m := dataFrameMessage(4096)
	var scratch []byte
	write := func() {
		scratch = appendMessage(openFrame(scratch), m)
		frame, err := sealFrame(scratch, ftData, false)
		if err != nil {
			t.Fatal(err)
		}
		scratch = frame
		if _, err := io.Discard.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("encode + write: %.1f allocs per frame, want 0", allocs)
	}

	_, _, raw := codecSections(4096)
	rawFrame, err := sealFrame(appendMessage(openFrame(nil), transport.Message{Seq: 2, Raw: raw}), ftData, false)
	if err != nil {
		t.Fatal(err)
	}
	var r bytes.Reader
	fr := frameReader{r: &r}
	for _, c := range []struct {
		name  string
		frame []byte
	}{{"F32", scratch}, {"Raw", rawFrame}} {
		read := func() {
			r.Reset(c.frame)
			_, p, _, err := fr.next()
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeMessage(p)
			if err != nil {
				t.Fatal(err)
			}
			pool.PutF32(got.F32)
			pool.PutBytes(got.Raw)
		}
		read()
		if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
			t.Errorf("read + decode of a %s frame: %.1f allocs per frame, want 0", c.name, allocs)
		}
	}
}

// TestPooledSectionReturnsAfterSeal: the write loop Puts a Pooled message's
// F32 section as soon as its frame is sealed, so the peer's decode of a
// section that size draws that very buffer from the pool; an unmarked
// section stays the sender's and never enters the pool.
func TestPooledSectionReturnsAfterSeal(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	// One P and no collections: a Put is then the next Get of its size
	// class on every goroutine, and nothing empties the pool in between.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC() // two cycles drop whatever earlier tests left pooled
	runtime.GC()
	eps := dialWorld(t, 2, nil)
	const n = 3 << 16 // a size class no other traffic of this test uses
	exchange := func(sent []float32, pooled bool) []float32 {
		t.Helper()
		for i := range sent {
			sent[i] = float32(i)
		}
		if err := eps[0].Send(1, transport.Message{Seq: 1, F32: sent, Pooled: pooled}); err != nil {
			t.Fatal(err)
		}
		m, err := eps[1].Recv(0, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.F32) != n || m.F32[n-1] != n-1 {
			t.Fatalf("received %d floats ending in %v, want %d ending in %d", len(m.F32), m.F32[len(m.F32)-1], n, n-1)
		}
		return m.F32
	}
	same := func(a, b []float32) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

	marked := pool.GetF32Uninit(n)
	if got := exchange(marked, true); !same(got, marked) {
		t.Error("a Pooled F32 section was not back in the pool when the peer decoded its frame")
	}
	unmarked := make([]float32, n, cap(marked))
	if got := exchange(unmarked, false); same(got, unmarked) {
		t.Error("an unmarked F32 section was decoded into: the write loop put it in the pool")
	}
	if same(pool.GetF32Uninit(n), unmarked) {
		t.Error("an unmarked F32 section came back from the pool")
	}
}

// BenchmarkDataFrame encodes and seals one 384 000-float data frame per op,
// writes it to an in-memory stream, then reads it back and decodes it (the
// F32 goes back to the pool, as the all-reduce's receiver does); MB/s
// counts frame bytes.
func BenchmarkDataFrame(b *testing.B) {
	m := dataFrameMessage(384000)
	var scratch []byte
	var wire bytes.Buffer
	fr := frameReader{r: &wire}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := sealFrame(appendMessage(openFrame(scratch), m), ftData, false)
		if err != nil {
			b.Fatal(err)
		}
		scratch = frame
		b.SetBytes(int64(len(frame)))
		wire.Reset()
		if _, err := wire.Write(frame); err != nil {
			b.Fatal(err)
		}
		_, p, _, err := fr.next()
		if err != nil {
			b.Fatal(err)
		}
		got, err := decodeMessage(p)
		if err != nil {
			b.Fatal(err)
		}
		pool.PutF32(got.F32)
	}
}
