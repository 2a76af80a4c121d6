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

	"kgedist/internal/transport"
)

// ProtocolVersion is carried in every frame header and validated during the
// rendezvous handshake: processes speaking different wire revisions refuse
// to mesh instead of misinterpreting each other's bytes.
const ProtocolVersion = 1

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
	ftRegister = 1  // dialer -> coordinator: join a generation
	ftRoster   = 2  // coordinator -> member: sealed membership of a generation
	ftHello    = 3  // mesh dial: higher original rank -> lower
	ftAck      = 4  // mesh accept confirmation
	ftReject   = 5  // handshake refusal; payload is the reason
	ftData     = 6  // collective point-to-point message
	ftBarrier  = 7  // dissemination-barrier token
	ftPing     = 8  // heartbeat request; payload echoes back in the pong
	ftPong     = 9  // heartbeat reply
	ftBye      = 10 // clean shutdown notice (departure, not failure)
	ftRegroup  = 11 // failure notice: original-rank dead set
)

// errCRC marks a frame rejected by checksum — surfaced separately so the
// reader can count it as corruption rather than a generic stream error.
var errCRC = errors.New("tcptransport: frame checksum mismatch")

// writeFrame writes one frame and returns the wire bytes moved. corrupt
// flips one payload bit after the checksum is computed (the fault-injection
// seam behind Endpoint.Inject(FaultCorrupt, ...)); the caller's payload is
// copied first so only the wire image is damaged.
func writeFrame(w io.Writer, typ byte, payload []byte, corrupt bool) (int64, error) {
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("tcptransport: frame payload %d exceeds %d-byte bound", len(payload), maxPayload)
	}
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint16(hdr[0:2], frameMagic)
	hdr[2] = ProtocolVersion
	hdr[3] = typ
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if corrupt {
		if len(payload) > 0 {
			damaged := append([]byte(nil), payload...)
			damaged[len(damaged)/2] ^= 0x80
			payload = damaged
		} else {
			crc = ^crc
		}
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[:], crc)
	if _, err := w.Write(tr[:]); err != nil {
		return 0, err
	}
	return int64(headerLen + len(payload) + trailerLen), nil
}

// readFrame reads and validates one frame.
func readFrame(r io.Reader) (typ byte, payload []byte, wire int64, err error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
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
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, err
	}
	var tr [trailerLen]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return 0, nil, 0, err
	}
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if binary.LittleEndian.Uint32(tr[:]) != crc {
		return 0, nil, 0, errCRC
	}
	return hdr[3], payload, int64(headerLen) + int64(n) + trailerLen, nil
}

// Message payload presence flags.
const (
	flagF32 = 1 << iota
	flagI32
	flagRaw
	flagF64
)

// appendMessage serializes m onto buf (reused writer scratch) and returns
// the extended slice. Layout: flags(1) seq(8), then each present payload as
// count(4) + little-endian elements (F64 is a bare 8-byte value).
func appendMessage(buf []byte, m transport.Message) []byte {
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
		for _, v := range m.F32 {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	if m.I32 != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.I32)))
		for _, v := range m.I32 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
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

// decodeMessage parses a data payload into freshly allocated slices (the
// receiver owns them outright, satisfying mpi's all-gather freshness
// contract by construction).
func decodeMessage(p []byte) (transport.Message, error) {
	c := cursor{p: p}
	var m transport.Message
	flags := c.u8()
	m.Seq = c.u64()
	if flags&flagF32 != 0 {
		n := int(c.u32())
		if c.err == nil && n >= 0 && 4*n <= c.remaining() {
			m.F32 = make([]float32, n)
			for i := range m.F32 {
				m.F32[i] = math.Float32frombits(c.u32())
			}
		} else {
			c.fail()
		}
	}
	if flags&flagI32 != 0 {
		n := int(c.u32())
		if c.err == nil && n >= 0 && 4*n <= c.remaining() {
			m.I32 = make([]int32, n)
			for i := range m.I32 {
				m.I32[i] = int32(c.u32())
			}
		} else {
			c.fail()
		}
	}
	if flags&flagRaw != 0 {
		n := int(c.u32())
		m.Raw = append([]byte(nil), c.bytes(n)...)
	}
	if flags&flagF64 != 0 {
		m.F64 = math.Float64frombits(c.u64())
	}
	if c.err != nil {
		return transport.Message{}, c.err
	}
	return m, nil
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
