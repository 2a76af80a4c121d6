package model

import (
	"math"
	"testing"

	"kgedist/internal/xrand"
)

var allModels = []string{"complex", "distmult", "transe", "rotate", "transh", "simple"}

// specialFloats are the values a block kernel could plausibly treat
// differently from ScoreRows: signed zeros, denormals, infinities (whose
// differences and zero-products are NaN) and the float32 range limits.
var specialFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-41,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.MaxFloat32, -math.MaxFloat32,
}

// fillRows writes seeded normals with roughly one value in specialEvery
// replaced by a special float (0 disables specials).
func fillRows(dst []float32, rng *xrand.RNG, specialEvery int) {
	for i := range dst {
		dst[i] = float32(rng.NormFloat64())
		if specialEvery > 0 && rng.Intn(specialEvery) == 0 {
			dst[i] = specialFloats[rng.Intn(len(specialFloats))]
		}
	}
}

// checkBlockEqualsRows is the block scorer's whole contract: every output
// has the bit pattern of the ScoreRows call it replaces. anyNaN accepts two
// NaNs with different payloads: when both operands of an add or multiply are
// NaNs the hardware keeps the first one's payload, and operand order is the
// register allocator's choice. That only arises when the inputs themselves
// carry NaNs (the fuzzer's raw bit patterns); NaNs that arithmetic on finite
// and infinite inputs produces all share the default payload.
func checkBlockEqualsRows(t *testing.T, m Model, side Side, fixed, rel, slab []float32, n int, anyNaN bool) {
	t.Helper()
	w := m.Width()
	out := make([]float32, n)
	m.(BlockScorer).ScoreBlock(side, fixed, rel, slab, out)
	for i := 0; i < n; i++ {
		row := slab[i*w : (i+1)*w]
		want := m.ScoreRows(row, rel, fixed)
		if side == Tail {
			want = m.ScoreRows(fixed, rel, row)
		}
		if anyNaN && math.IsNaN(float64(out[i])) && math.IsNaN(float64(want)) {
			continue
		}
		if math.Float32bits(out[i]) != math.Float32bits(want) {
			t.Fatalf("%s dim %d side %d row %d of %d: block %x (%g), ScoreRows %x (%g)",
				m.Name(), m.Dim(), side, i, n, math.Float32bits(out[i]), out[i], math.Float32bits(want), want)
		}
	}
}

func TestScoreBlockBitEqualsScoreRows(t *testing.T) {
	for _, name := range allModels {
		// 4, 64 and 68 are widths TransE's AVX2 kernel takes, and n around
		// and past its 16-row blocks leaves it a tail of 0, 1 and 15 rows.
		// ComplEx's kernel takes d = 8, 32 and 64, and n around its 8-triple
		// groups and 32-row chunks leaves it every kind of tail; 300 is a
		// wide row (600 floats) that used to take a heap buffer.
		for _, dim := range []int{1, 4, 7, 8, 32, 33, 36, 64, 68, 300} {
			m := New(name, dim)
			w := m.Width()
			for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 127, 128, 129, 1023} {
				for _, specialEvery := range []int{0, 5} {
					rng := xrand.New(uint64(dim*4096 + n*2 + specialEvery))
					fixed, rel, slab := make([]float32, w), make([]float32, w), make([]float32, n*w)
					fillRows(fixed, rng, specialEvery)
					fillRows(rel, rng, specialEvery)
					fillRows(slab, rng, specialEvery)
					checkBlockEqualsRows(t, m, Head, fixed, rel, slab, n, false)
					checkBlockEqualsRows(t, m, Tail, fixed, rel, slab, n, false)
				}
			}
		}
	}
}

// FuzzScoreBlock lets the fuzzer pick the model, dimension, block length and
// the raw bit patterns of every row (NaNs included).
func FuzzScoreBlock(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(5), uint64(1), []byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff})
	f.Add(uint8(2), uint8(7), uint8(9), uint64(2), []byte{1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(1), uint8(1), uint8(0), uint64(3), []byte{})
	f.Fuzz(func(t *testing.T, model, dim, rows uint8, seed uint64, raw []byte) {
		m := New(allModels[int(model)%len(allModels)], 1+int(dim)%40)
		w, n := m.Width(), int(rows)%70
		buf := make([]float32, (n+2)*w)
		fillRows(buf, xrand.New(seed), 0)
		// Overlay the fuzzer's bytes as float32 bit patterns from the front:
		// fixed row, relation row, then the slab.
		for i := 0; i+4 <= len(raw) && i/4 < len(buf); i += 4 {
			buf[i/4] = math.Float32frombits(uint32(raw[i]) | uint32(raw[i+1])<<8 | uint32(raw[i+2])<<16 | uint32(raw[i+3])<<24)
		}
		fixed, rel, slab := buf[:w], buf[w:2*w], buf[2*w:]
		checkBlockEqualsRows(t, m, Head, fixed, rel, slab, n, true)
		checkBlockEqualsRows(t, m, Tail, fixed, rel, slab, n, true)
	})
}
