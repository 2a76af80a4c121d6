package tcptransport

// Wire format. Every frame is length-prefixed and CRC-checked:
//
//	offset  size  field
//	0       2     magic 0x444B ("KD", little-endian)
//	2       1     protocol version
//	3       1     frame type
//	4       4     payload length (little-endian)
//	8       n     payload
//	8+n     4     CRC32 (IEEE) over header + payload
//
// A frame that fails magic, version, length-bound or checksum validation is
// never delivered: the reader declares the connection's peer failed (a
// corrupted stream cannot be resynchronized, and a version mismatch means
// the processes were built from different wire revisions). Payload layouts
// are decoded through a bounds-checked cursor, so a malformed payload from a
// foreign dialer surfaces as an error, never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"kgedist/internal/pool"
	"kgedist/internal/transport"
)

// ProtocolVersion is carried in every frame header and validated during the
// rendezvous handshake: processes speaking different wire revisions refuse
// to mesh instead of misinterpreting each other's bytes.
const ProtocolVersion = 2

const (
	frameMagic = 0x444B // "KD"
	headerLen  = 8
	trailerLen = 4
	// maxPayload bounds a single frame so a corrupted or hostile length
	// prefix cannot trigger a gigantic allocation.
	maxPayload = 1 << 30
)

// Frame types.
const (
	ftJoin    = 1 // dialler -> lower original rank: join a generation
	ftRoster  = 2 // acceptor -> dialler: sealed membership of a generation
	ftReject  = 3 // handshake refusal; payload is the reason
	ftData    = 4 // collective point-to-point message
	ftBarrier = 5 // dissemination-barrier token
	ftPing    = 6 // heartbeat request; payload echoes back in the pong
	ftPong    = 7 // heartbeat reply
	ftBye     = 8 // clean shutdown notice (departure, not failure)
	ftRegroup = 9 // failure notice: original-rank dead set
)

// errCRC marks a frame rejected by checksum — surfaced separately so the
// reader can count it as corruption rather than a generic stream error.
var errCRC = errors.New("tcptransport: frame checksum mismatch")

// openFrame resets buf to an empty frame: headerLen bytes reserved for the
// header, which sealFrame fills in once the payload has been appended.
func openFrame(buf []byte) []byte {
	return slices.Grow(buf[:0], headerLen)[:headerLen]
}

// sealFrame completes the frame opened in buf (header reserved, payload
// appended): it fills in the header, appends the CRC trailer and returns the
// whole frame, ready for one Write. corrupt flips one payload bit after the
// checksum is computed (the fault-injection seam behind
// Endpoint.Inject(FaultCorrupt, ...)); the payload is already a copy in buf,
// so only the wire image is damaged. An empty payload has no bit to flip, so
// its checksum is inverted instead.
func sealFrame(buf []byte, typ byte, corrupt bool) ([]byte, error) {
	n := len(buf) - headerLen
	if n > maxPayload {
		return nil, fmt.Errorf("tcptransport: frame payload %d exceeds %d-byte bound", n, maxPayload)
	}
	binary.LittleEndian.PutUint16(buf[0:2], frameMagic)
	buf[2] = ProtocolVersion
	buf[3] = typ
	binary.LittleEndian.PutUint32(buf[4:8], uint32(n))
	crc := crc32.ChecksumIEEE(buf)
	if corrupt {
		if n > 0 {
			buf[headerLen+n/2] ^= 0x80
		} else {
			crc = ^crc
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc), nil
}

// writeFrame writes one frame with payload in a single Write and returns the
// wire bytes moved. It copies the payload into a fresh buffer; the write
// loop seals frames in its own scratch instead.
func writeFrame(w io.Writer, typ byte, payload []byte, corrupt bool) (int64, error) {
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("tcptransport: frame payload %d exceeds %d-byte bound", len(payload), maxPayload)
	}
	frame, err := sealFrame(append(openFrame(make([]byte, 0, headerLen+len(payload)+trailerLen)), payload...), typ, corrupt)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(frame); err != nil {
		return 0, err
	}
	return int64(len(frame)), nil
}

// frameReader reads frames into one buffer it owns: header, payload and
// trailer land in it together, and it grows to the largest frame seen
// (bounded by maxPayload). A payload it returns is valid only until the next
// call; a reader that keeps one longer copies it first.
type frameReader struct {
	r   io.Reader
	buf []byte
}

// next reads and validates one frame. The checksum is verified before the
// payload is returned, so nothing decodes an unchecked byte.
func (fr *frameReader) next() (typ byte, payload []byte, wire int64, err error) {
	if fr.buf == nil {
		fr.buf = make([]byte, headerLen+trailerLen)
	}
	hdr := fr.buf[:headerLen]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return 0, nil, 0, err
	}
	if got := binary.LittleEndian.Uint16(hdr[0:2]); got != frameMagic {
		return 0, nil, 0, fmt.Errorf("tcptransport: bad frame magic %#04x", got)
	}
	if hdr[2] != ProtocolVersion {
		return 0, nil, 0, fmt.Errorf("tcptransport: protocol version %d, this build speaks %d", hdr[2], ProtocolVersion)
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxPayload {
		return 0, nil, 0, fmt.Errorf("tcptransport: frame payload %d exceeds %d-byte bound", n, maxPayload)
	}
	size := headerLen + int(n) + trailerLen
	if cap(fr.buf) < size {
		grown := make([]byte, size)
		copy(grown, hdr)
		fr.buf = grown
	}
	frame := fr.buf[:size]
	if _, err := io.ReadFull(fr.r, frame[headerLen:]); err != nil {
		return 0, nil, 0, err
	}
	body := frame[:size-trailerLen]
	if binary.LittleEndian.Uint32(frame[size-trailerLen:]) != crc32.ChecksumIEEE(body) {
		return 0, nil, 0, errCRC
	}
	return frame[3], body[headerLen:], int64(size), nil
}

// readFrame reads and validates one frame into a freshly allocated buffer,
// so the payload may be kept (the handshake's reads).
func readFrame(r io.Reader) (typ byte, payload []byte, wire int64, err error) {
	fr := frameReader{r: r}
	return fr.next()
}

// Message payload presence flags.
const (
	flagF32 = 1 << iota
	flagI32
	flagRaw
	flagF64
)

// hostLittleEndian reports whether this host stores a float32 or int32 in
// memory exactly as the wire does (little-endian). Only then may a section
// be moved as one byte-view copy of the slice; any other host takes the
// per-element loops. Both paths produce the same bytes and values.
var hostLittleEndian = binary.NativeEndian.Uint32([]byte{1, 2, 3, 4}) == binary.LittleEndian.Uint32([]byte{1, 2, 3, 4})

// appendMessage serializes m onto buf (reused writer scratch) and returns
// the extended slice. Layout: flags(1) seq(8), then each present payload as
// count(4) + little-endian elements (F64 is a bare 8-byte value).
func appendMessage(buf []byte, m transport.Message) []byte {
	return encodeMessage(buf, m, hostLittleEndian)
}

// releasePooled recycles a Pooled message's F32 and Raw sections. The write
// loop calls it once per data frame, right after appendMessage has copied
// them into the frame: from then on only the copy is read, so the sender's
// staging buffers refill the pool the receiver's decode draws from.
func releasePooled(m transport.Message) {
	if m.Pooled {
		pool.PutF32(m.F32)
		pool.PutBytes(m.Raw)
	}
}

// encodeMessage is appendMessage with the section copy chosen: bulk moves
// each F32 and I32 section with one copy of its memory (little-endian hosts
// only); otherwise one element at a time, the portable path and the tests'
// oracle.
func encodeMessage(buf []byte, m transport.Message, bulk bool) []byte {
	var flags byte
	if m.F32 != nil {
		flags |= flagF32
	}
	if m.I32 != nil {
		flags |= flagI32
	}
	if m.Raw != nil {
		flags |= flagRaw
	}
	if math.Float64bits(m.F64) != 0 { // -0 must travel: channels deliver it
		flags |= flagF64
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	if m.F32 != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.F32)))
		if bulk {
			buf = append(buf, wordBytes(m.F32)...)
		} else {
			for _, v := range m.F32 {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
		}
	}
	if m.I32 != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.I32)))
		if bulk {
			buf = append(buf, wordBytes(m.I32)...)
		} else {
			for _, v := range m.I32 {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
		}
	}
	if m.Raw != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Raw)))
		buf = append(buf, m.Raw...)
	}
	if flags&flagF64 != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.F64))
	}
	return buf
}

// decodeMessage parses a data payload. p is the read loop's reused buffer,
// so every section is copied out: F32 into a pooled slice, Raw into a pooled
// byte slice, I32 into a fresh one. The receiver owns all three exclusively
// (DESIGN §10): a collective that consumes a block may Put it, one that
// keeps it (all-gather) simply never does.
func decodeMessage(p []byte) (transport.Message, error) {
	return parseMessage(p, hostLittleEndian)
}

// parseMessage is decodeMessage with the section copy chosen, as in
// encodeMessage. An empty F32 or I32 section decodes to an empty non-nil
// slice, an empty Raw section to nil.
func parseMessage(p []byte, bulk bool) (transport.Message, error) {
	c := cursor{p: p}
	flags := c.u8()
	seq := c.u64()
	var (
		f32 []float32
		i32 []int32
		raw []byte
		f64 float64
	)
	if flags&flagF32 != 0 {
		if n, ok := c.count(4); ok {
			f32 = pool.GetF32Uninit(n)
			src := c.bytes(4 * n)
			if bulk {
				copy(wordBytes(f32), src)
			} else {
				for i := range f32 {
					f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
				}
			}
		}
	}
	if flags&flagI32 != 0 {
		if n, ok := c.count(4); ok {
			i32 = make([]int32, n)
			src := c.bytes(4 * n)
			if bulk {
				copy(wordBytes(i32), src)
			} else {
				for i := range i32 {
					i32[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
				}
			}
		}
	}
	if flags&flagRaw != 0 {
		if n, ok := c.count(1); ok && n > 0 {
			raw = pool.GetBytes(n)
			copy(raw, c.bytes(n))
		}
	}
	if flags&flagF64 != 0 {
		f64 = math.Float64frombits(c.u64())
	}
	if c.err != nil {
		pool.PutF32(f32)
		pool.PutBytes(raw)
		return transport.Message{}, c.err
	}
	return transport.Message{Seq: seq, F32: f32, I32: i32, Raw: raw, F64: f64}, nil
}

// wordBytes views a float32 or int32 slice's memory as bytes, nil for nil.
// The view aliases s; it is the wire image of s only on a little-endian host.
func wordBytes[T float32 | int32](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// cursor is a bounds-checked payload reader: any out-of-range access sets
// err and subsequent reads return zeros, so decoders can validate once at
// the end instead of threading errors through every field.
type cursor struct {
	p   []byte
	off int
	err error
}

var errTruncated = errors.New("tcptransport: truncated frame payload")

func (c *cursor) remaining() int { return len(c.p) - c.off }

func (c *cursor) fail() {
	if c.err == nil {
		c.err = errTruncated
	}
}

func (c *cursor) bytes(n int) []byte {
	if c.err != nil || n < 0 || c.off+n > len(c.p) {
		c.fail()
		return nil
	}
	b := c.p[c.off : c.off+n]
	c.off += n
	return b
}

// count reads a section's element count and checks that count elements of
// size bytes fit in what is left of the payload. Dividing the remainder
// instead of multiplying the count cannot overflow int, so a hostile count
// is refused before it sizes any allocation on 32-bit hosts too.
func (c *cursor) count(size int) (int, bool) {
	n := c.u32()
	if c.err != nil || uint64(n) > uint64(c.remaining()/size) {
		c.fail()
		return 0, false
	}
	return int(n), true
}

func (c *cursor) u8() byte {
	b := c.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u32() uint32 {
	b := c.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *cursor) str() string {
	n := int(c.u32())
	return string(c.bytes(n))
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}
