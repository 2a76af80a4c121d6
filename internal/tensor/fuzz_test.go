package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Differential fuzzers: each decodes the fuzz input as raw float32 bits, so
// NaN, both infinities, -0 and subnormals all occur, runs the dispatching
// kernel and its Go loop on copies, and requires the same bits (NaN as a
// class). The committed corpus under testdata/fuzz/ seeds the specials at
// lengths 0, 1, 7, 8, 9, 16, 17, 63, 64 and 65: no block, a tail only, one
// block with and without a tail, several blocks. FuzzTransEBlock's corpus
// seeds the same specials at every width of transEWidths,
// FuzzTransEBlockFloor's corpus seeds every kind of floor at widths 64 and
// 68 (and the unchecked 8), a floor on a group's best partial score, NaN
// rows and rows whose exact score turns NaN or -Inf past transESplit, and
// FuzzComplExTriples' corpus at every dimension of complExDims with each
// aliasing mode, and FuzzNrm2Rows' corpus at every width of nrm2Widths with
// and without aliasing.

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

// FuzzOptimizerRows covers Adam at steps 1..20000 and SGD.
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

// FuzzTransEBlockFloor scores 0-70 rows at one of transEWidths as tails and
// as heads at a floor, through the dispatching kernels and the Go loops, and
// holds every output to the floor contract (checkTransEBlockFloor). The rows
// are transEFloorCase's layout from seed, a few rows near the tail query and
// the rest far from it, so floors really stop blocks, patched by data
// (patchFloats) with any bits anywhere; floor names the floor (fuzzFloor).
func FuzzTransEBlockFloor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, width, rows, floor uint8, seed int64) {
		d, n := transEWidths[int(width)%len(transEWidths)], int(rows)%71
		h, r, tt, slab := transEFloorCase(rand.New(rand.NewSource(seed)), d, n, 0)
		buf := slices.Concat(h, r, tt, slab)
		first := patchFloats(buf, data)
		h, r, tt, slab = buf[:d], buf[d:2*d], buf[2*d:3*d], buf[3*d:]
		checkTransEBlockFloor(t, h, r, tt, slab, n, fuzzFloor(floor, first, h, r, slab, n))
	})
}

// patchFloats applies data to buf, six bytes at a time: a little-endian
// uint16 index, taken modulo len(buf), and the raw bits of the float32 to
// put there. It returns the first value put, or 0.
func patchFloats(buf []float32, data []byte) (first float32) {
	for i := 0; i+6 <= len(data) && len(buf) > 0; i += 6 {
		v := math.Float32frombits(binary.LittleEndian.Uint32(data[i+2:]))
		buf[int(binary.LittleEndian.Uint16(data[i:]))%len(buf)] = v
		if i == 0 {
			first = v
		}
	}
	return first
}

// fuzzFloor returns the floor sel names, over the exact tail scores of the
// n-row slab: by sel%8, -Inf, NaN, +Inf, first (the first patched value,
// any bits), row j's exact score, row j's partial score at transESplit, the
// float32 just above that partial score, or the best exact score that is not
// NaN; j is sel/8 modulo n. Row j's partial score is the edge a kernel must
// not stop at: a group whose best row sits exactly on the floor has to be
// finished.
func fuzzFloor(sel uint8, first float32, h, r, slab []float32, n int) float32 {
	d := len(h)
	exact := make([]float32, n)
	transETailGo(h, r, slab, exact, noFloor, d)
	var rowExact, rowPartial float32
	if n > 0 {
		j := int(sel/8) % n
		rowExact = exact[j]
		rowPartial = transEPartial(true, h, r, slab[j*d:(j+1)*d], min(transESplit, d))
	}
	best := noFloor
	for _, v := range exact {
		if v > best {
			best = v
		}
	}
	inf := float32(math.Inf(1))
	return []float32{noFloor, float32(math.NaN()), inf, first, rowExact, rowPartial,
		math.Nextafter32(rowPartial, inf), best}[sel%8]
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

// FuzzNrm2Rows takes the norms of 0-40 rows at one of nrm2Widths. The decoded
// floats are repeated to fill the rows; an odd alias puts the first row in
// every lane.
func FuzzNrm2Rows(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, width, rows, alias uint8) {
		d, n := nrm2Widths[int(width)%len(nrm2Widths)], int(rows)%41
		vals := fuzzFloats(data)
		buf := make([]float32, n*d)
		for i := range buf {
			if len(vals) > 0 {
				buf[i] = vals[i%len(vals)]
			}
		}
		checkNrm2Rows(t, nrm2Table(d, buf, n, alias%2 == 1))
	})
}
