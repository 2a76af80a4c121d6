package tensor

// ComplEx triple scoring: many gathered (head, relation, tail) triples in one
// call. Each output is bit-for-bit ComplEx's per-row score,
//
//	Dot3(rr,hr,tr) + Dot3(rr,hi,ti) + Dot3(ri,hr,ti) - Dot3(ri,hi,tr),
//
// where each Dot3 is a float32 chain s += (a·b)·c in k order from +0. Every
// triple keeps its four chains whole, so the AVX2 kernel puts one triple in
// each lane and never adds across lanes.

// ComplExScoreTriples writes out[j] = the ComplEx score of the triple
// (h[j], r[j], t[j]) for every j < len(out). Each row is d real parts
// followed by d imaginary parts; only its first 2d floats are read. Rows may
// alias freely: the same row may fill many triples, and h[j] may be t[j].
func ComplExScoreTriples(d int, h, r, t [][]float32, out []float32) {
	n := len(out)
	if d < 0 || len(h) < n || len(r) < n || len(t) < n {
		panic("tensor: ComplExScoreTriples length mismatch")
	}
	k := 0
	if useAVX2 && d > 0 && d%lanes == 0 {
		k = n &^ (lanes - 1)
	}
	if k > 0 {
		w := 2 * d
		for j := range k {
			if len(h[j]) < w || len(r[j]) < w || len(t[j]) < w {
				panic("tensor: ComplExScoreTriples row shorter than 2d")
			}
		}
		complExTriplesAVX2(d, h[:k], r[:k], t[:k], out[:k])
	}
	complExTriplesGo(d, h[k:], r[k:], t[k:], out[k:])
}

// complExTriplesGo is the portable loop: ComplEx.ScoreRows' four Dot3 chains
// carried side by side, one triple at a time.
func complExTriplesGo(d int, h, r, t [][]float32, out []float32) {
	for j := range out {
		hr, hi := h[j][:d], h[j][d:2*d]
		rr, ri := r[j][:d], r[j][d:2*d]
		tr, ti := t[j][:d], t[j][d:2*d]
		var a, b, e, f float32
		for k, rrk := range rr {
			rik, hrk, hik, trk, tik := ri[k], hr[k], hi[k], tr[k], ti[k]
			a += rrk * hrk * trk
			b += rrk * hik * tik
			e += rik * hrk * tik
			f += rik * hik * trk
		}
		out[j] = a + b + e - f
	}
}
