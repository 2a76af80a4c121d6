package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// Differential fuzzers: each decodes the fuzz input as raw float32 bits, so
// NaN, both infinities, -0 and subnormals all occur, runs the dispatching
// kernel and its Go loop on copies, and requires the same bits (NaN as a
// class). The committed corpus under testdata/fuzz/ seeds the specials at
// lengths 0, 1, 7, 8, 9, 16, 17, 63, 64 and 65: no block, a tail only, one
// block with and without a tail, several blocks. FuzzTransEBlock's corpus
// seeds the same specials at every width of transEWidths, and
// FuzzComplExTriples' corpus at every dimension of complExDims with each
// aliasing mode.

// fuzzFloats decodes data as little-endian float32 bits; a trailing partial
// word is ignored.
func fuzzFloats(data []byte) []float32 {
	v := make([]float32, len(data)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return v
}

// splitFloats returns the first value of vals and k equal slices of length
// n cut from the rest.
func splitFloats(vals []float32, k int) (first float32, parts [][]float32, n int) {
	if len(vals) == 0 {
		return 0, make([][]float32, k), 0
	}
	first, rest := vals[0], vals[1:]
	n = len(rest) / k
	parts = make([][]float32, k)
	for i := range parts {
		parts[i] = rest[i*n : (i+1)*n]
	}
	return first, parts, n
}

func FuzzElementwise(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		alpha, p, _ := splitFloats(fuzzFloats(data), 3)
		checkElementwise(t, alpha, p[0], p[1], p[2])
	})
}

// FuzzOptimizerRows covers Adam at steps 1..20000, Adagrad and SGD.
func FuzzOptimizerRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, step uint16) {
		lr, p, _ := splitFloats(fuzzFloats(data), 4)
		checkOptimizerRows(t, lr, 1+int(step)%20000, p[0], p[1], p[2], p[3])
	})
}

func FuzzComplExGrad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, alias uint8) {
		coef, p, n := splitFloats(fuzzFloats(data), 6)
		if n%2 != 0 {
			for i := range p {
				p[i] = p[i][:n-1]
			}
		}
		complExCase(t, p[0], p[1], p[2], coef, p[3], p[4], p[5], alias)
	})
}

// FuzzTransEBlock scores 0-70 rows at one of transEWidths as tails and as
// heads. The decoded floats are repeated to fill h, r, t and the slab in
// that order, so a short input still reaches every row.
func FuzzTransEBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, width, rows uint8) {
		d, n := transEWidths[int(width)%len(transEWidths)], int(rows)%71
		vals := fuzzFloats(data)
		buf := make([]float32, (3+n)*d)
		for i := range buf {
			if len(vals) > 0 {
				buf[i] = vals[i%len(vals)]
			}
		}
		checkTransEBlock(t, buf[:d], buf[d:2*d], buf[2*d:3*d], buf[3*d:], n)
	})
}

// FuzzComplExTriples scores 0-40 triples at one of complExDims. The decoded
// floats are repeated to fill the row table; alias picks the aliasing of
// complExTable (the same rows in every lane, h == t).
func FuzzComplExTriples(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, dim, rows, alias uint8) {
		d, n := complExDims[int(dim)%len(complExDims)], int(rows)%41
		vals := fuzzFloats(data)
		buf := make([]float32, 3*n*2*d)
		for i := range buf {
			if len(vals) > 0 {
				buf[i] = vals[i%len(vals)]
			}
		}
		h, r, tt := complExTable(d, buf, n, alias)
		checkComplExTriples(t, d, h, r, tt, n)
	})
}
