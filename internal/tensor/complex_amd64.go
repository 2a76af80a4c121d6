//go:build amd64 && !purego && !race

package tensor

// The ComplEx triple kernel in complex_amd64.s scores len(out) triples, a
// positive multiple of 8, whose rows each hold at least 2d floats, d a
// positive multiple of 8, and computes exactly what complExTriplesGo
// computes.

//go:noescape
func complExTriplesAVX2(d int, h, r, t [][]float32, out []float32)
