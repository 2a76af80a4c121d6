//go:build amd64 && !purego && !race

package tensor

// useAVX2 selects the assembly kernels in the *_amd64.s files. It is fixed at
// package init from CPUID and XGETBV: the CPU must report AVX2 and the
// operating system must save the YMM state across context switches.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bit 1 (SSE state) and bit 2 (AVX state) must both be enabled.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

//go:noescape
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

// The kernels below take slices whose length is a non-zero multiple of
// lanes (complExGradAVX2: n, the number of elements of each half it
// covers) and compute exactly what the Go loop of the same name computes.

//go:noescape
func addAVX2(x, y []float32)

//go:noescape
func scaleAVX2(alpha float32, x []float32)

//go:noescape
func axpyAVX2(alpha float32, x, y []float32)

//go:noescape
func axpyMulAVX2(alpha float32, a, b, y []float32)

//go:noescape
func adamRowAVX2(row, grad, m, v []float32, c *AdamStep)

//go:noescape
func complExGradAVX2(h, r, t []float32, coef float32, gh, gr, gt []float32, n int)
