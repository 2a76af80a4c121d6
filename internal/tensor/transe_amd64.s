//go:build amd64 && !purego && !race

#include "textflag.h"

// AVX2 kernels for TransE 1-vs-N block scoring (transe.go). Lanes are rows,
// never k: lane j of an accumulator is one candidate row's float64 sum, and
// it receives that row's squares in k order, so no sum is reordered and
// every output is exactly the bits of the Go loop:
//
//   - per row, four consecutive k are combined in float32 (VSUBPS, or
//     VADDPS then VSUBPS on the head side), the same single roundings as
//     the scalar SUBSS/ADDSS;
//   - VCVTPS2PD widens exactly and VMULPD squares with one rounding, as
//     CVTSS2SD and MULSD do;
//   - a 4x4 transpose (VUNPCKLPD/VUNPCKHPD, then VPERM2F128) moves row j's
//     four squares into lane j, and four VADDPDs add them in k order;
//   - the epilogue is Go's float32(-s): a sign flip (VXORPD), then one
//     rounding (VCVTPD2PSY).
//
// One iteration scores 16 rows as four groups of four, each group on its
// own accumulator (Y0..Y3), so four add chains are in flight. Register use:
//
//	AX, DX  the two fixed rows (h, r on the tail side; r, t on the head)
//	CX      row stride in bytes (d*4), also the end of the k loop
//	R9      three row strides
//	SI      first row of the current 16-row block
//	R10, R11, R12, R8  rows 0, 4, 8, 12 of the block, advanced along k
//	BX      k in bytes
//	DI, R13 next output, end of out
//
// d is a positive multiple of 4 and len(out) a positive multiple of 16;
// the caller runs everything else through the Go loop.

// signbits is float64 -0.0 in each of four lanes.
DATA signbits<>+0(SB)/8, $0x8000000000000000
DATA signbits<>+8(SB)/8, $0x8000000000000000
DATA signbits<>+16(SB)/8, $0x8000000000000000
DATA signbits<>+24(SB)/8, $0x8000000000000000
GLOBL signbits<>(SB), RODATA|NOPTR, $32

// TAIL_DIFF leaves q - row_j[k..k+3] for the four rows from p in X5..X8,
// with q = h + r in X4.
#define TAIL_DIFF(p) \
	VSUBPS (p), X4, X5; \
	VSUBPS (p)(CX*1), X4, X6; \
	VSUBPS (p)(CX*2), X4, X7; \
	VSUBPS (p)(R9*1), X4, X8

// HEAD_DIFF leaves (row_j + r) - t at k..k+3 for the four rows from p in
// X5..X8, with r in X12 and t in X13.
#define HEAD_DIFF(p) \
	VADDPS (p), X12, X5; \
	VADDPS (p)(CX*1), X12, X6; \
	VADDPS (p)(CX*2), X12, X7; \
	VADDPS (p)(R9*1), X12, X8; \
	VSUBPS X13, X5, X5; \
	VSUBPS X13, X6, X6; \
	VSUBPS X13, X7, X7; \
	VSUBPS X13, X8, X8

// SQUARE_SUM widens and squares the differences in X5..X8 (row j, lanes
// k..k+3), transposes them to one k per register (lane j = row j) and adds
// the four registers into acc in k order.
#define SQUARE_SUM(acc) \
	VCVTPS2PD X5, Y5; \
	VCVTPS2PD X6, Y6; \
	VCVTPS2PD X7, Y7; \
	VCVTPS2PD X8, Y8; \
	VMULPD Y5, Y5, Y5; \
	VMULPD Y6, Y6, Y6; \
	VMULPD Y7, Y7, Y7; \
	VMULPD Y8, Y8, Y8; \
	VUNPCKLPD Y6, Y5, Y9; \
	VUNPCKHPD Y6, Y5, Y5; \
	VUNPCKLPD Y8, Y7, Y6; \
	VUNPCKHPD Y8, Y7, Y7; \
	VPERM2F128 $0x20, Y6, Y9, Y8; \
	VPERM2F128 $0x31, Y6, Y9, Y9; \
	VPERM2F128 $0x20, Y7, Y5, Y6; \
	VPERM2F128 $0x31, Y7, Y5, Y5; \
	VADDPD Y8, acc, acc; \
	VADDPD Y6, acc, acc; \
	VADDPD Y9, acc, acc; \
	VADDPD Y5, acc, acc

// PROLOGUE loads the arguments shared by both kernels.
#define PROLOGUE \
	MOVQ slab_base+48(FP), SI; \
	MOVQ out_base+72(FP), DI; \
	MOVQ out_len+80(FP), R13; \
	SHLQ $2, CX; \
	LEAQ (CX)(CX*2), R9; \
	LEAQ (DI)(R13*4), R13; \
	VMOVUPS signbits<>(SB), Y15

// BLOCK_START zeroes the four accumulators (Go's var s float64 is +0) and
// points the group registers at rows 0, 4, 8 and 12 of the block.
#define BLOCK_START \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	MOVQ SI, R10; \
	LEAQ (SI)(CX*4), R11; \
	LEAQ (R11)(CX*4), R12; \
	LEAQ (R12)(CX*4), R8; \
	LEAQ (R12)(CX*8), SI; \
	LEAQ (SI)(CX*8), SI; \
	LEAQ (SI)(CX*8), SI; \
	XORQ BX, BX

// NEXT_K steps the k loop by four floats.
#define NEXT_K \
	ADDQ $16, R10; \
	ADDQ $16, R11; \
	ADDQ $16, R12; \
	ADDQ $16, R8; \
	ADDQ $16, BX; \
	PREFETCHT0 0(SI); \
	PREFETCHT0 64(SI); \
	PREFETCHT0 128(SI); \
	PREFETCHT0 192(SI); \
	ADDQ $256, SI

// BLOCK_END stores float32(-s) for the block's 16 rows and moves SI to the
// next block: R8 ends one stride past row 12, three strides short of it.
#define BLOCK_END \
	VXORPD Y15, Y0, Y0; \
	VXORPD Y15, Y1, Y1; \
	VXORPD Y15, Y2, Y2; \
	VXORPD Y15, Y3, Y3; \
	VCVTPD2PSY Y0, X0; \
	VCVTPD2PSY Y1, X1; \
	VCVTPD2PSY Y2, X2; \
	VCVTPD2PSY Y3, X3; \
	VMOVUPS X0, 0(DI); \
	VMOVUPS X1, 16(DI); \
	VMOVUPS X2, 32(DI); \
	VMOVUPS X3, 48(DI); \
	ADDQ $64, DI; \
	LEAQ (R8)(R9*1), SI

// func transETailAVX2(h, r, slab, out []float32)
// out[i] = float32(-Σ_k float64((h[k]+r[k]) - row_i[k])²)
TEXT ·transETailAVX2(SB), NOSPLIT, $0-96
	MOVQ h_base+0(FP), AX
	MOVQ h_len+8(FP), CX
	MOVQ r_base+24(FP), DX
	PROLOGUE

tailblock:
	BLOCK_START

tailk:
	VMOVUPS (AX)(BX*1), X4
	VADDPS  (DX)(BX*1), X4, X4 // q = h + r
	TAIL_DIFF(R10)
	SQUARE_SUM(Y0)
	TAIL_DIFF(R11)
	SQUARE_SUM(Y1)
	TAIL_DIFF(R12)
	SQUARE_SUM(Y2)
	TAIL_DIFF(R8)
	SQUARE_SUM(Y3)
	NEXT_K
	CMPQ    BX, CX
	JB      tailk

	BLOCK_END
	CMPQ DI, R13
	JB   tailblock
	VZEROUPPER
	RET

// func transEHeadAVX2(r, t, slab, out []float32)
// out[i] = float32(-Σ_k float64((row_i[k]+r[k]) - t[k])²)
TEXT ·transEHeadAVX2(SB), NOSPLIT, $0-96
	MOVQ r_base+0(FP), AX
	MOVQ t_base+24(FP), DX
	MOVQ t_len+32(FP), CX
	PROLOGUE

headblock:
	BLOCK_START

headk:
	VMOVUPS (AX)(BX*1), X12 // r
	VMOVUPS (DX)(BX*1), X13 // t
	HEAD_DIFF(R10)
	SQUARE_SUM(Y0)
	HEAD_DIFF(R11)
	SQUARE_SUM(Y1)
	HEAD_DIFF(R12)
	SQUARE_SUM(Y2)
	HEAD_DIFF(R8)
	SQUARE_SUM(Y3)
	NEXT_K
	CMPQ    BX, CX
	JB      headk

	BLOCK_END
	CMPQ DI, R13
	JB   headblock
	VZEROUPPER
	RET
