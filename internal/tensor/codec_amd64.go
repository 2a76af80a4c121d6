//go:build amd64 && !purego && !race

package tensor

// The codec kernels in codec_amd64.s take len(x), a positive multiple of 8,
// and len(bits) = len(x)/8, and compute exactly what signMaskAbsMaxGo (from
// m = +0) and addSignedGo compute.

//go:noescape
func signMaskAbsMaxAVX2(x []float32, bits []byte) float32

//go:noescape
func addSignedAVX2(bits []byte, pos, neg float32, x []float32)
