//go:build amd64 && !purego && !race

#include "textflag.h"

// AVX2 kernels for the element-wise loops in tensor.go and rows.go. Each
// one computes exactly the bits of its Go loop, per element:
//
//   - only VMULPS, VADDPS, VSUBPS, VDIVPS and VSQRTPS do arithmetic, each
//     the same correctly rounded IEEE operation as its scalar SSE form;
//     nothing is fused (no FMA) and nothing is summed across lanes;
//   - every expression is evaluated in the order Go parses it, so
//     a*b*c is (a*b)*c;
//   - every output block is loaded, updated and stored in the order the
//     Go loop body updates its elements, which keeps exact aliasing of
//     outputs (ComplEx's gh == gt) per-element sequential.
//
// Slice lengths (complExGradAVX2: n) are non-zero multiples of 8; the
// caller runs the remainder through the Go loop.

// one is float32 1.0, for Adam's 1-beta terms.
DATA one<>+0(SB)/4, $0x3f800000
GLOBL one<>(SB), RODATA|NOPTR, $4

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func addAVX2(x, y []float32)
// y[i] += x[i]
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ y_len+32(FP), CX
	XORQ BX, BX

addloop:
	VMOVUPS (DI)(BX*4), Y0
	VADDPS  (SI)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JB      addloop
	VZEROUPPER
	RET

// func scaleAVX2(alpha float32, x []float32)
// x[i] *= alpha
TEXT ·scaleAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y8
	MOVQ         x_base+8(FP), DI
	MOVQ         x_len+16(FP), CX
	XORQ         BX, BX

scaleloop:
	VMOVUPS (DI)(BX*4), Y0
	VMULPS  Y8, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JB      scaleloop
	VZEROUPPER
	RET

// func axpyAVX2(alpha float32, x, y []float32)
// y[i] += alpha * x[i]
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y8
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX
	XORQ         BX, BX

axpyloop:
	VMULPS  (SI)(BX*4), Y8, Y1
	VMOVUPS (DI)(BX*4), Y0
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JB      axpyloop
	VZEROUPPER
	RET

// func axpyMulAVX2(alpha float32, a, b, y []float32)
// y[i] += alpha * a[i] * b[i]
TEXT ·axpyMulAVX2(SB), NOSPLIT, $0-80
	VBROADCASTSS alpha+0(FP), Y8
	MOVQ         a_base+8(FP), SI
	MOVQ         b_base+32(FP), R8
	MOVQ         y_base+56(FP), DI
	MOVQ         y_len+64(FP), CX
	XORQ         BX, BX

axpymulloop:
	VMULPS  (SI)(BX*4), Y8, Y1 // alpha * a
	VMULPS  (R8)(BX*4), Y1, Y1 // (alpha * a) * b
	VMOVUPS (DI)(BX*4), Y0
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JB      axpymulloop
	VZEROUPPER
	RET

// func adamRowAVX2(row, grad, m, v []float32, c *AdamStep)
//
//	m = beta1*m + (1-beta1)*g
//	v = beta2*v + ((1-beta2)*g)*g
//	row -= (lr * (m/corr1)) / (sqrt(v/corr2) + eps)
TEXT ·adamRowAVX2(SB), NOSPLIT, $0-104
	MOVQ row_base+0(FP), DI
	MOVQ grad_base+24(FP), SI
	MOVQ grad_len+32(FP), CX
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ c+96(FP), AX

	// AdamStep field offsets: Beta1 0, Beta2 4, Corr1 8, Corr2 12,
	// LR 16, Eps 20.
	VBROADCASTSS 0(AX), Y8   // beta1
	VBROADCASTSS 4(AX), Y9   // beta2
	VBROADCASTSS 8(AX), Y10  // corr1
	VBROADCASTSS 12(AX), Y11 // corr2
	VBROADCASTSS 16(AX), Y12 // lr
	VBROADCASTSS 20(AX), Y13 // eps
	VBROADCASTSS one<>(SB), Y6
	VSUBPS       Y8, Y6, Y14 // 1-beta1
	VSUBPS       Y9, Y6, Y15 // 1-beta2
	XORQ         BX, BX

adamloop:
	VMOVUPS (SI)(BX*4), Y0     // g
	VMULPS  (R8)(BX*4), Y8, Y1 // beta1*m
	VMULPS  Y0, Y14, Y2        // (1-beta1)*g
	VADDPS  Y2, Y1, Y1         // m
	VMOVUPS Y1, (R8)(BX*4)
	VMULPS  (R9)(BX*4), Y9, Y3 // beta2*v
	VMULPS  Y0, Y15, Y4        // (1-beta2)*g
	VMULPS  Y0, Y4, Y4         // ((1-beta2)*g)*g
	VADDPS  Y4, Y3, Y3         // v
	VMOVUPS Y3, (R9)(BX*4)
	VDIVPS  Y10, Y1, Y1        // mHat = m/corr1
	VDIVPS  Y11, Y3, Y3        // vHat = v/corr2
	VSQRTPS Y3, Y3             // sqrt(vHat)
	VADDPS  Y13, Y3, Y3        // sqrt(vHat) + eps
	VMULPS  Y1, Y12, Y1        // lr*mHat
	VDIVPS  Y3, Y1, Y1         // (lr*mHat) / (sqrt(vHat)+eps)
	VMOVUPS (DI)(BX*4), Y5
	VSUBPS  Y1, Y5, Y5         // row - ...
	VMOVUPS Y5, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JB      adamloop
	VZEROUPPER
	RET

// func complExGradAVX2(h, r, t []float32, coef float32, gh, gr, gt []float32, n int)
//
// Covers elements 0..n-1 of the real half (byte offset BX) and of the
// imaginary half (byte offset AX = BX + d*4) of every row. The six output
// blocks are updated in the Go loop's order: ghr, ghi, grr, gri, gtr, gti.
TEXT ·complExGradAVX2(SB), NOSPLIT, $0-160
	MOVQ         h_base+0(FP), SI
	MOVQ         h_len+8(FP), DX
	SHRQ         $1, DX
	SHLQ         $2, DX // d*4: byte offset of the imaginary half
	MOVQ         r_base+24(FP), R8
	MOVQ         t_base+48(FP), R9
	VBROADCASTSS coef+72(FP), Y15
	MOVQ         gh_base+80(FP), R10
	MOVQ         gr_base+104(FP), R11
	MOVQ         gt_base+128(FP), R12
	MOVQ         n+152(FP), CX
	SHLQ         $2, CX
	XORQ         BX, BX

complexloop:
	LEAQ    (BX)(DX*1), AX
	VMOVUPS (SI)(BX*1), Y0 // hr
	VMOVUPS (SI)(AX*1), Y1 // hi
	VMOVUPS (R8)(BX*1), Y2 // rr
	VMOVUPS (R8)(AX*1), Y3 // ri
	VMOVUPS (R9)(BX*1), Y4 // tr
	VMOVUPS (R9)(AX*1), Y5 // ti

	// ghr += coef * (rr*tr + ri*ti)
	VMULPS  Y4, Y2, Y6
	VMULPS  Y5, Y3, Y7
	VADDPS  Y7, Y6, Y6
	VMULPS  Y6, Y15, Y6
	VMOVUPS (R10)(BX*1), Y7
	VADDPS  Y6, Y7, Y7
	VMOVUPS Y7, (R10)(BX*1)

	// ghi += coef * (rr*ti - ri*tr)
	VMULPS  Y5, Y2, Y6
	VMULPS  Y4, Y3, Y7
	VSUBPS  Y7, Y6, Y6
	VMULPS  Y6, Y15, Y6
	VMOVUPS (R10)(AX*1), Y7
	VADDPS  Y6, Y7, Y7
	VMOVUPS Y7, (R10)(AX*1)

	// grr += coef * (hr*tr + hi*ti)
	VMULPS  Y4, Y0, Y6
	VMULPS  Y5, Y1, Y7
	VADDPS  Y7, Y6, Y6
	VMULPS  Y6, Y15, Y6
	VMOVUPS (R11)(BX*1), Y7
	VADDPS  Y6, Y7, Y7
	VMOVUPS Y7, (R11)(BX*1)

	// gri += coef * (hr*ti - hi*tr)
	VMULPS  Y5, Y0, Y6
	VMULPS  Y4, Y1, Y7
	VSUBPS  Y7, Y6, Y6
	VMULPS  Y6, Y15, Y6
	VMOVUPS (R11)(AX*1), Y7
	VADDPS  Y6, Y7, Y7
	VMOVUPS Y7, (R11)(AX*1)

	// gtr += coef * (hr*rr - hi*ri)
	VMULPS  Y2, Y0, Y6
	VMULPS  Y3, Y1, Y7
	VSUBPS  Y7, Y6, Y6
	VMULPS  Y6, Y15, Y6
	VMOVUPS (R12)(BX*1), Y7
	VADDPS  Y6, Y7, Y7
	VMOVUPS Y7, (R12)(BX*1)

	// gti += coef * (hi*rr + hr*ri)
	VMULPS  Y2, Y1, Y6
	VMULPS  Y3, Y0, Y7
	VADDPS  Y7, Y6, Y6
	VMULPS  Y6, Y15, Y6
	VMOVUPS (R12)(AX*1), Y7
	VADDPS  Y6, Y7, Y7
	VMOVUPS Y7, (R12)(AX*1)

	ADDQ $32, BX
	CMPQ BX, CX
	JB   complexloop
	VZEROUPPER
	RET
