//go:build amd64 && !purego && !race

package tensor

// The TransE block kernels in transe_amd64.s take a slab of len(out) rows of
// d = len(h) (len(t)) floats, where d is a positive multiple of 4 and
// len(out) a positive multiple of 16, and compute exactly what
// transETailGo (transEHeadGo) computes, with the floor checked once per 16
// rows: below is transEBelow(floor), and split, in bytes, is 4*d or
// 4*transESplit.

//go:noescape
func transETailAVX2(h, r, slab, out []float32, below float32, split int)

//go:noescape
func transEHeadAVX2(r, t, slab, out []float32, below float32, split int)

// nrm2RowsAVX2 shares transe_amd64.s and its square-sum with the TransE
// kernels. It takes len(out) rows of d floats, where d and len(out) are
// positive multiples of 4, and computes exactly what Nrm2 computes for each.
//
//go:noescape
func nrm2RowsAVX2(d int, rows [][]float32, out []float32)
