package core

import (
	"strings"
	"testing"

	"kgedist/internal/grad"
	"kgedist/internal/xrand"
)

// encodeRows quantizes one normal-random row per id into a wire frame.
func encodeRows(s grad.Scheme, width int, ids ...int32) []byte {
	rng := xrand.New(5)
	g := grad.NewSparseGrad(width)
	for _, id := range ids {
		for j, row := 0, g.Row(id); j < width; j++ {
			row[j] = float32(rng.NormFloat64())
		}
	}
	return grad.Quantize(g, s, rng).Marshal()
}

// Both gathered-frame decode sites — the quantized all-gather and the
// reduced chunks of the compressed pipeline — check a peer's frame before
// use: a frame that decodes cleanly but has the wrong scheme, the wrong width
// or a row outside what the sender may send is an error naming the sender,
// never a panic in Dequantize or applyGrads.
func TestDecodeAllRejectsInconsistentFrames(t *testing.T) {
	const width, rows = 4, 30
	cfg := testConfig()
	x := newExchanger(&cfg, nil, width, rows, 1, xrand.New(1))
	for _, site := range []struct {
		what    string
		chunked bool
		foreign int32 // an id rank 1 may not send: past the table, or in another rank's chunk
	}{
		{"quantized payload", false, rows},
		{"compressed chunk payload", true, 5},
	} {
		// With 3 ranks, rank 1 sends chunk 2, ids [20, 30); ranks 0 and 2
		// send chunks 1 and 0 — good frames at either site.
		good := [][]byte{encodeRows(grad.OneBitMax, width, 10, 19), nil, encodeRows(grad.OneBitMax, width, 0, 9)}
		for _, bad := range []struct {
			name  string
			frame []byte
		}{
			{"undecodable", []byte{1, 2, 3}},
			{"wrong scheme", encodeRows(grad.TwoBitTernary, width, 21)},
			{"wrong width", encodeRows(grad.OneBitMax, width+1, 21)},
			{"out-of-range id", encodeRows(grad.OneBitMax, width, 21, site.foreign)},
		} {
			payloads := [][]byte{good[0], bad.frame, good[2]}
			err := x.decodeAll(payloads, grad.NewSparseGrad(width), grad.OneBitMax, rows, site.chunked)
			if err == nil || !strings.Contains(err.Error(), "corrupt "+site.what+" from rank 1") {
				t.Errorf("%s, %s: err = %v, want a corrupt %s naming rank 1", site.what, bad.name, err, site.what)
			}
		}
		good[1] = encodeRows(grad.OneBitMax, width, 20, 29)
		if err := x.decodeAll(good, grad.NewSparseGrad(width), grad.OneBitMax, rows, site.chunked); err != nil {
			t.Errorf("%s: consistent frames rejected: %v", site.what, err)
		}
	}
}
