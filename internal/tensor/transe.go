package tensor

import "math"

// TransE 1-vs-N block scoring: one (fixed entity, relation) pair against a
// contiguous slab of candidate rows. Each output is bit-for-bit TransE's
// per-row score, float32(-Σ_k float64(h[k] + r[k] - t[k])²): every row keeps
// its own float64 sum in k order, so the AVX2 kernel puts one row in each
// lane and never adds across lanes.

// transEBlockRows is the number of rows one AVX2 kernel iteration scores:
// four groups of four lanes, each group on its own accumulator.
const transEBlockRows = 16

// transESplit is the k at which a kernel given a floor checks a group of
// rows. Before it, a quarter of a 64-wide row, most losing rows of a
// clustered table already score below a top-k floor; much earlier, too few
// do.
const transESplit = 16

// The floor. TransE's score is minus a float64 sum of non-negative squares
// added in k order, so the sum after the first k terms is a prefix of the
// final one: adding squares can only raise it, and float32(-s) is monotone
// in s. A row whose partial score is already below the floor therefore has
// an exact score below the floor too (or NaN, from a NaN or an Inf - Inf
// term later in the row), and the kernels may stop scoring it.
// At transESplit each group of rows (16 in the AVX2 kernel, 4 in the Go
// loops) is checked: when every row of the group has a partial score below
// the floor, those partial scores are stored and the group stops there;
// otherwise it is finished in the same order as without a floor. A NaN
// partial is never below the floor, so a group holding one is finished. A
// floor of -Inf or NaN turns the check off, and so does d <= transESplit.
//
// The contract is: out[i] is the exact score, or it is below floor and the
// exact score is below floor or NaN. A top-k sweep that passes its current
// k-th best score rejects both, so it keeps exactly the entries it would
// have kept without a floor.

// transESplitAt is the k the kernels check the floor at: transESplit when
// that saves work and the floor is a number above -Inf, else d (no check).
func transESplitAt(d int, floor float32) int {
	if d > transESplit && floor > float32(math.Inf(-1)) {
		return transESplit
	}
	return d
}

// TransEScoreTails writes out[i] = float32(-Σ_k float64((h[k]+r[k]) - c[k])²)
// for every candidate tail row c = slab[i*d : (i+1)*d], d = len(h), except
// that a row whose score is below floor (or NaN) may get any value below
// floor (see above; pass float32(math.Inf(-1)) for every score exact). slab
// must hold at least len(out) rows.
func TransEScoreTails(h, r, slab, out []float32, floor float32) {
	d := len(h)
	if len(r) != d || len(slab) < len(out)*d {
		panic("tensor: TransEScoreTails length mismatch")
	}
	split := transESplitAt(d, floor)
	n := transEKernelRows(d, len(out))
	if n > 0 {
		transETailAVX2(h, r, slab[:n*d], out[:n], transEBelow(floor), 4*split)
	}
	transETailGo(h, r, slab[n*d:], out[n:], floor, split)
}

// TransEScoreHeads writes out[i] = float32(-Σ_k float64((c[k]+r[k]) - t[k])²)
// for every candidate head row c = slab[i*d : (i+1)*d], d = len(t), except
// that a row whose score is below floor (or NaN) may get any value below
// floor. slab must hold at least len(out) rows.
func TransEScoreHeads(r, t, slab, out []float32, floor float32) {
	d := len(t)
	if len(r) != d || len(slab) < len(out)*d {
		panic("tensor: TransEScoreHeads length mismatch")
	}
	split := transESplitAt(d, floor)
	n := transEKernelRows(d, len(out))
	if n > 0 {
		transEHeadAVX2(r, t, slab[:n*d], out[:n], transEBelow(floor), 4*split)
	}
	transEHeadGo(r, t, slab[n*d:], out[n:], floor, split)
}

// transEBelow is the largest float32 below floor. The AVX2 kernels test
// below >= x, which is x < floor for every number x and false for NaN; the
// reverse test x >= floor would need an OR across lanes to find the rows
// that must be finished, and the exact instruction set has only AND.
func transEBelow(floor float32) float32 {
	return math.Nextafter32(floor, float32(math.Inf(-1)))
}

// transEKernelRows is how many of rows the AVX2 kernel scores: whole
// 16-row blocks when the kernels are present and d is a positive multiple
// of four (the kernel combines four consecutive k per row), else none.
func transEKernelRows(d, rows int) int {
	if !useAVX2 || d == 0 || d%4 != 0 {
		return 0
	}
	return rows &^ (transEBlockRows - 1)
}

// transETailGo is the portable tail-side loop: four rows per inner loop so
// their serial add chains overlap, q = h + r shared by the four. Each group
// of four runs k over [0, split), and on to d unless all four partial scores
// are below floor.
func transETailGo(h, r, slab, out []float32, floor float32, split int) {
	d := len(h)
	i := 0
	for ; i+4 <= len(out); i += 4 {
		c := slab[i*d : (i+4)*d]
		c0, c1, c2, c3 := c[:d], c[d:][:d], c[2*d:][:d], c[3*d:][:d]
		o := out[i : i+4]
		var s0, s1, s2, s3 float64
		for lo, hi := 0, split; ; lo, hi = hi, d {
			for k := lo; k < hi; k++ {
				q := h[k] + r[k]
				d0 := float64(q - c0[k])
				d1 := float64(q - c1[k])
				d2 := float64(q - c2[k])
				d3 := float64(q - c3[k])
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			o[0], o[1], o[2], o[3] = float32(-s0), float32(-s1), float32(-s2), float32(-s3)
			if hi == d || o[0] < floor && o[1] < floor && o[2] < floor && o[3] < floor {
				break
			}
		}
	}
	for ; i < len(out); i++ {
		c := slab[i*d:][:d]
		var s float64
		for k, hv := range h {
			e := float64(hv + r[k] - c[k])
			s += e * e
		}
		out[i] = float32(-s)
	}
}

// transEHeadGo is the portable head-side loop, four rows per inner loop,
// with transETailGo's floor check.
func transEHeadGo(r, t, slab, out []float32, floor float32, split int) {
	d := len(t)
	i := 0
	for ; i+4 <= len(out); i += 4 {
		c := slab[i*d : (i+4)*d]
		c0, c1, c2, c3 := c[:d], c[d:][:d], c[2*d:][:d], c[3*d:][:d]
		o := out[i : i+4]
		var s0, s1, s2, s3 float64
		for lo, hi := 0, split; ; lo, hi = hi, d {
			for k := lo; k < hi; k++ {
				rv, tv := r[k], t[k]
				d0 := float64(c0[k] + rv - tv)
				d1 := float64(c1[k] + rv - tv)
				d2 := float64(c2[k] + rv - tv)
				d3 := float64(c3[k] + rv - tv)
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			o[0], o[1], o[2], o[3] = float32(-s0), float32(-s1), float32(-s2), float32(-s3)
			if hi == d || o[0] < floor && o[1] < floor && o[2] < floor && o[3] < floor {
				break
			}
		}
	}
	for ; i < len(out); i++ {
		c := slab[i*d:][:d]
		var s float64
		for k, tv := range t {
			e := float64(c[k] + r[k] - tv)
			s += e * e
		}
		out[i] = float32(-s)
	}
}
