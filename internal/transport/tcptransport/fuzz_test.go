package tcptransport

import (
	"maps"
	"math"
	"slices"
	"testing"

	"kgedist/internal/transport"
)

// FuzzDecodeMessage throws arbitrary bytes at the decoder of the data frames
// every collective's point-to-point traffic rides — all-to-all row blocks
// included. The contract: no input panics; the host's decoder (byte-view
// copies on a little-endian host) accepts exactly what the per-element
// reference decoder accepts, with bit-identical results; an accepted message
// allocates no more payload than the input can carry, so a hostile count
// cannot drive allocation; and it survives an appendMessage → decodeMessage
// round trip bit for bit, nil-ness of each payload included.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := decodeMessage(p)
		ref, rerr := parseMessage(p, false)
		if (err == nil) != (rerr == nil) || !sameMessage(m, ref) {
			t.Fatalf("decoder and reference disagree: %+v (%v) vs %+v (%v)", m, err, ref, rerr)
		}
		if err != nil {
			return
		}
		if n := 4*len(m.F32) + 4*len(m.I32) + len(m.Raw); n > len(p) {
			t.Fatalf("decoded %d payload bytes from a %d-byte frame", n, len(p))
		}
		again, err := decodeMessage(appendMessage(nil, m))
		if err != nil {
			t.Fatalf("re-encoded message rejected: %v", err)
		}
		if !sameMessage(m, again) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, m)
		}
	})
}

// sameMessage compares two messages bit for bit, telling nil from empty.
func sameMessage(a, b transport.Message) bool {
	return a.Seq == b.Seq &&
		math.Float64bits(a.F64) == math.Float64bits(b.F64) && math.Float64bits(a.Clock) == math.Float64bits(b.Clock) &&
		(a.F32 == nil) == (b.F32 == nil) && (a.I32 == nil) == (b.I32 == nil) && (a.Raw == nil) == (b.Raw == nil) &&
		slices.EqualFunc(a.F32, b.F32, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }) &&
		slices.Equal(a.I32, b.I32) && slices.Equal(a.Raw, b.Raw)
}

// FuzzDecodeHandshake throws arbitrary bytes at the two handshake decoders
// a listener and a dialler run on bytes from a peer: the JOIN every inbound
// connection opens with and the roster that answers it. Neither may panic, a
// roster never lists more than maxWorldSize members, and whatever a decoder
// accepts re-encodes to the same fields.
func FuzzDecodeHandshake(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		if j, err := decodeJoin(p); err == nil {
			again, err := decodeJoin(encodeJoin(j))
			if err != nil || again != j {
				t.Fatalf("join round trip: %+v -> %+v (%v)", j, again, err)
			}
		}
		gen, live, addrs, err := decodeRoster(p)
		if len(live) > maxWorldSize || len(addrs) > maxWorldSize {
			t.Fatalf("roster of %d members (%d addresses) exceeds %d", len(live), len(addrs), maxWorldSize)
		}
		if err == nil {
			g2, live2, addrs2, err := decodeRoster(encodeRoster(gen, live, addrs))
			if err != nil || g2 != gen || !slices.Equal(live2, live) || !maps.Equal(addrs2, addrs) {
				t.Fatalf("roster round trip: %d %v %v -> %d %v %v (%v)", gen, live, addrs, g2, live2, addrs2, err)
			}
		}
	})
}
