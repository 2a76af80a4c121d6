package tensor

// TransE 1-vs-N block scoring: one (fixed entity, relation) pair against a
// contiguous slab of candidate rows. Each output is bit-for-bit TransE's
// per-row score, float32(-Σ_k float64(h[k] + r[k] - t[k])²): every row keeps
// its own float64 sum in k order, so the AVX2 kernel puts one row in each
// lane and never adds across lanes.

// transEBlockRows is the number of rows one AVX2 kernel iteration scores:
// four groups of four lanes, each group on its own accumulator.
const transEBlockRows = 16

// TransEScoreTails writes out[i] = float32(-Σ_k float64((h[k]+r[k]) - c[k])²)
// for every candidate tail row c = slab[i*d : (i+1)*d], d = len(h). slab
// must hold at least len(out) rows.
func TransEScoreTails(h, r, slab, out []float32) {
	d := len(h)
	if len(r) != d || len(slab) < len(out)*d {
		panic("tensor: TransEScoreTails length mismatch")
	}
	n := transEKernelRows(d, len(out))
	if n > 0 {
		transETailAVX2(h, r, slab[:n*d], out[:n])
	}
	transETailGo(h, r, slab[n*d:], out[n:])
}

// TransEScoreHeads writes out[i] = float32(-Σ_k float64((c[k]+r[k]) - t[k])²)
// for every candidate head row c = slab[i*d : (i+1)*d], d = len(t). slab
// must hold at least len(out) rows.
func TransEScoreHeads(r, t, slab, out []float32) {
	d := len(t)
	if len(r) != d || len(slab) < len(out)*d {
		panic("tensor: TransEScoreHeads length mismatch")
	}
	n := transEKernelRows(d, len(out))
	if n > 0 {
		transEHeadAVX2(r, t, slab[:n*d], out[:n])
	}
	transEHeadGo(r, t, slab[n*d:], out[n:])
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
// their serial add chains overlap, q = h + r shared by the four.
func transETailGo(h, r, slab, out []float32) {
	d := len(h)
	i := 0
	for ; i+4 <= len(out); i += 4 {
		c := slab[i*d : (i+4)*d]
		c0, c1, c2, c3 := c[:d], c[d:][:d], c[2*d:][:d], c[3*d:][:d]
		var s0, s1, s2, s3 float64
		for k, hv := range h {
			q := hv + r[k]
			d0 := float64(q - c0[k])
			d1 := float64(q - c1[k])
			d2 := float64(q - c2[k])
			d3 := float64(q - c3[k])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		o := out[i : i+4]
		o[0], o[1], o[2], o[3] = float32(-s0), float32(-s1), float32(-s2), float32(-s3)
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

// transEHeadGo is the portable head-side loop, four rows per inner loop.
func transEHeadGo(r, t, slab, out []float32) {
	d := len(t)
	i := 0
	for ; i+4 <= len(out); i += 4 {
		c := slab[i*d : (i+4)*d]
		c0, c1, c2, c3 := c[:d], c[d:][:d], c[2*d:][:d], c[3*d:][:d]
		var s0, s1, s2, s3 float64
		for k, tv := range t {
			rv := r[k]
			d0 := float64(c0[k] + rv - tv)
			d1 := float64(c1[k] + rv - tv)
			d2 := float64(c2[k] + rv - tv)
			d3 := float64(c3[k] + rv - tv)
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		o := out[i : i+4]
		o[0], o[1], o[2], o[3] = float32(-s0), float32(-s1), float32(-s2), float32(-s3)
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
