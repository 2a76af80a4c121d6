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

// The quantized all-gather checks a peer's gathered frame before use: a
// frame that decodes cleanly but has the wrong scheme, the wrong width or a
// row past the table is an error naming the sender, never a panic in
// Dequantize or applyGrads. (The compressed all-reduce checks its chunk
// frames inside mpi.)
func TestDecodeAllRejectsInconsistentFrames(t *testing.T) {
	const width, rows = 4, 30
	cfg := testConfig()
	x := newExchanger(&cfg, nil, width, rows, 1, xrand.New(1))
	good := [][]byte{encodeRows(grad.OneBitMax, width, 10, 19), nil, encodeRows(grad.OneBitMax, width, 0, 9)}
	for _, bad := range []struct {
		name  string
		frame []byte
	}{
		{"undecodable", []byte{1, 2, 3}},
		{"wrong scheme", encodeRows(grad.TwoBitTernary, width, 21)},
		{"wrong width", encodeRows(grad.OneBitMax, width+1, 21)},
		{"out-of-range id", encodeRows(grad.OneBitMax, width, 21, rows)},
	} {
		payloads := [][]byte{good[0], bad.frame, good[2]}
		err := x.decodeAll(payloads, grad.NewSparseGrad(width), grad.OneBitMax, rows)
		if err == nil || !strings.Contains(err.Error(), "corrupt quantized payload from rank 1") {
			t.Errorf("%s: err = %v, want a corrupt quantized payload naming rank 1", bad.name, err)
		}
	}
	good[1] = encodeRows(grad.OneBitMax, width, 20, 29)
	if err := x.decodeAll(good, grad.NewSparseGrad(width), grad.OneBitMax, rows); err != nil {
		t.Errorf("consistent frames rejected: %v", err)
	}
}
