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

// dropZeroRows drops exactly the rows whose norm is at most zeroRowEps,
// charges the scan of every row it saw, and allocates nothing once the
// accumulator is warm.
func TestDropZeroRows(t *testing.T) {
	const width = 8
	g := grad.NewSparseGrad(width)
	fill := func() {
		g.Clear()
		for id := int32(0); id < 150; id++ {
			row := g.Row(id)
			switch id % 3 {
			case 0: // all zero
			case 1:
				row[id%width] = zeroRowEps / 2
			default:
				row[id%width] = 1
			}
		}
	}
	fill()
	if flops := dropZeroRows(g); flops != 150*width*2 {
		t.Fatalf("dropZeroRows charged %v flops, want %v", flops, 150*width*2)
	}
	for _, id := range g.Indices() {
		if id%3 != 2 {
			t.Fatalf("row %d survived with norm at most zeroRowEps", id)
		}
	}
	if g.Len() != 50 {
		t.Fatalf("%d rows survived, want 50", g.Len())
	}
	if allocs := testing.AllocsPerRun(50, func() { fill(); dropZeroRows(g) }); allocs != 0 {
		t.Errorf("dropZeroRows allocates %.1f times per call", allocs)
	}
}
