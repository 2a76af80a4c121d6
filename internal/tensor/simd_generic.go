//go:build !amd64 || purego || race

package tensor

// useAVX2 is false on builds without the assembly kernels: other
// architectures, the purego tag, and -race (the race detector cannot see
// memory that assembly touches, so race builds keep every element in Go).
const useAVX2 = false

// The stubs below are never called; they let the dispatching kernels
// compile unchanged on every build.

func addAVX2(x, y []float32)                             { panic("tensor: no AVX2 kernels") }
func scaleAVX2(alpha float32, x []float32)               { panic("tensor: no AVX2 kernels") }
func axpyAVX2(alpha float32, x, y []float32)             { panic("tensor: no AVX2 kernels") }
func axpyMulAVX2(alpha float32, a, b, y []float32)       { panic("tensor: no AVX2 kernels") }
func adamRowAVX2(row, grad, m, v []float32, c *AdamStep) { panic("tensor: no AVX2 kernels") }
func complExGradAVX2(h, r, t []float32, coef float32, gh, gr, gt []float32, n int) {
	panic("tensor: no AVX2 kernels")
}
func transETailAVX2(h, r, slab, out []float32, below float32, split int) {
	panic("tensor: no AVX2 kernels")
}
func transEHeadAVX2(r, t, slab, out []float32, below float32, split int) {
	panic("tensor: no AVX2 kernels")
}
func complExTriplesAVX2(d int, h, r, t [][]float32, out []float32) {
	panic("tensor: no AVX2 kernels")
}
func nrm2RowsAVX2(d int, rows [][]float32, out []float32)      { panic("tensor: no AVX2 kernels") }
func signMaskAbsMaxAVX2(x []float32, bits []byte) float32      { panic("tensor: no AVX2 kernels") }
func addSignedAVX2(bits []byte, pos, neg float32, x []float32) { panic("tensor: no AVX2 kernels") }
