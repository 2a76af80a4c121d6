//go:build amd64 && !purego && !race

package tensor

// The codec kernels in codec_amd64.s take len(x), a positive multiple of 8,
// and len(bits) = len(x)/8 (len(codes) = len(x)/4, len(p) = len(x)), and
// compute exactly what signMaskAbsMaxGo (from m = +0), addSignedGo,
// addTernaryGo and absRatiosGo compute.

//go:noescape
func signMaskAbsMaxAVX2(x []float32, bits []byte) float32

//go:noescape
func addSignedAVX2(bits []byte, pos, neg float32, x []float32)

//go:noescape
func addTernaryAVX2(codes []byte, pos, neg float32, x []float32)

//go:noescape
func absRatiosAVX2(x []float32, d float32, p []float64, sign []byte)
