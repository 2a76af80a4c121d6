//go:build amd64 && !purego && !race

#include "textflag.h"

// AVX2 kernels for TransE 1-vs-N block scoring (transe.go) and for gathered
// row norms (Nrm2Rows, tensor.go). Lanes are rows, never k: lane j of an
// accumulator is one row's float64 sum, and it receives that row's squares
// in k order, so no sum is reordered and every output is exactly the bits
// of the Go loop:
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
// own accumulator (Y0..Y3), so four add chains are in flight.
//
// The floor check (transe.go): the k loop first runs to split bytes. When
// split is short of the row (it is then 64, 4*transESplit), FLOOR_CHECK
// forms the block's 16 partial scores float32(-s) exactly as the epilogue
// would and tests below >= x per lane (VCMPPS GE_OQ, false for NaN), with
// below the largest float32 under the floor. Three VANDPS and a VMOVMSKPS
// leave 15 in BX only when all 16 rows are below the floor: the block then
// stores its partial scores and ends. Otherwise k runs on from split to
// the end of the row, adding the same squares in the same order. Register
// use:
//
//	AX, DX  the two fixed rows (h, r on the tail side; r, t on the head)
//	CX      row stride in bytes (d*4), also the end of the k loop
//	R9      three row strides
//	SI      first row of the current 16-row block, then, along k, the
//	        prefetch pointer into the block two ahead
//	R10, R11, R12, R8  rows 0, 4, 8, 12 of the block, advanced along k
//	BX      k in bytes; briefly the floor-check mask
//	R14     where the k loop stops next: split, then CX
//	X14     below, in every lane
//	DI, R13 next output, end of out
//
// d is a positive multiple of 4 and len(out) a positive multiple of 16;
// the caller runs everything else through the Go loop. R15 is left alone:
// -dynlink builds clobber it on the access to signbits.

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
	VBROADCASTSS below+96(FP), X14; \
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
	MOVQ split+104(FP), R14; \
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

// FLOOR_CHECK leaves the block's 16 partial scores float32(-s) in X5..X8,
// rows 0-3 to 12-15, and in BX a mask whose bit j is set when rows j, 4+j,
// 8+j and 12+j are all below the floor: 15 when every row is. Y0..Y3 are
// kept, so k can run on.
#define FLOOR_CHECK \
	VXORPD Y15, Y0, Y5; \
	VXORPD Y15, Y1, Y6; \
	VXORPD Y15, Y2, Y7; \
	VXORPD Y15, Y3, Y8; \
	VCVTPD2PSY Y5, X5; \
	VCVTPD2PSY Y6, X6; \
	VCVTPD2PSY Y7, X7; \
	VCVTPD2PSY Y8, X8; \
	VCMPPS $0x1D, X5, X14, X9; \
	VCMPPS $0x1D, X6, X14, X10; \
	VCMPPS $0x1D, X7, X14, X11; \
	VANDPS X10, X9, X9; \
	VCMPPS $0x1D, X8, X14, X10; \
	VANDPS X11, X9, X9; \
	VANDPS X10, X9, X9; \
	VMOVMSKPS X9, BX

// PRUNED_END stores the partial scores FLOOR_CHECK formed and moves SI to
// the next block: R12 is split = 64 bytes past row 8, eight strides short of
// it.
#define PRUNED_END \
	VMOVUPS X5, 0(DI); \
	VMOVUPS X6, 16(DI); \
	VMOVUPS X7, 32(DI); \
	VMOVUPS X8, 48(DI); \
	ADDQ $64, DI; \
	LEAQ -64(R12)(CX*8), SI

// func transETailAVX2(h, r, slab, out []float32, below float32, split int)
// out[i] = float32(-Σ_k float64((h[k]+r[k]) - row_i[k])²), or its partial
// sum to split when the block is below the floor
TEXT ·transETailAVX2(SB), NOSPLIT, $0-112
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
	CMPQ    BX, R14
	JB      tailk
	CMPQ    BX, CX
	JB      tailcheck

	BLOCK_END
	CMPQ DI, R13
	JB   tailblock
	VZEROUPPER
	RET

tailcheck:
	FLOOR_CHECK
	MOVQ CX, R14
	CMPQ BX, $15
	MOVQ split+104(FP), BX // k = split again; MOVQ leaves the flags alone
	JB   tailk           // a row is at or above the floor: finish the block
	PRUNED_END
	CMPQ DI, R13
	JB   tailblock
	VZEROUPPER
	RET

// func transEHeadAVX2(r, t, slab, out []float32, below float32, split int)
// out[i] = float32(-Σ_k float64((row_i[k]+r[k]) - t[k])²), or its partial
// sum to split when the block is below the floor
TEXT ·transEHeadAVX2(SB), NOSPLIT, $0-112
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
	CMPQ    BX, R14
	JB      headk
	CMPQ    BX, CX
	JB      headcheck

	BLOCK_END
	CMPQ DI, R13
	JB   headblock
	VZEROUPPER
	RET

headcheck:
	FLOOR_CHECK
	MOVQ CX, R14
	CMPQ BX, $15
	MOVQ split+104(FP), BX // k = split again; MOVQ leaves the flags alone
	JB   headk           // a row is at or above the floor: finish the block
	PRUNED_END
	CMPQ DI, R13
	JB   headblock
	VZEROUPPER
	RET

// Row norms: the same square-sum over gathered rows, with the rows' own
// values in place of the TransE differences. The epilogue is Nrm2's
// float32(math.Sqrt(s)): VSQRTPD, the correctly rounded square root that
// math.Sqrt is, then one rounding (VCVTPD2PSY). Eight rows go through two
// accumulators (Y0, Y1), so two add chains are in flight; a last group of
// four goes through Y0 alone. Register use:
//
//	AX      slice header of the group's first row (24 bytes each)
//	CX      d*4, the end of the k loop
//	BX      k in bytes
//	R8..R11, R12, R13, SI, DI  the group's rows
//	DX      next output
//
// d is a positive multiple of 4, len(out) a positive multiple of 4 and
// every row holds d floats.

// ROW_PTRS loads the data pointers of the four rows whose slice headers
// start at off(AX).
#define ROW_PTRS(off, r0, r1, r2, r3) \
	MOVQ off(AX), r0; \
	MOVQ off+24(AX), r1; \
	MOVQ off+48(AX), r2; \
	MOVQ off+72(AX), r3

// ROW_LOAD leaves k..k+3 of four rows in X5..X8, where SQUARE_SUM reads them.
#define ROW_LOAD(r0, r1, r2, r3) \
	VMOVUPS (r0)(BX*1), X5; \
	VMOVUPS (r1)(BX*1), X6; \
	VMOVUPS (r2)(BX*1), X7; \
	VMOVUPS (r3)(BX*1), X8

// NORM_STORE stores float32(math.Sqrt(s)) of the four sums in acc at off(DX).
#define NORM_STORE(acc, xacc, off) \
	VSQRTPD    acc, acc; \
	VCVTPD2PSY acc, xacc; \
	VMOVUPS    xacc, off(DX)

// func nrm2RowsAVX2(d int, rows [][]float32, out []float32)
// out[j] = float32(math.Sqrt(Σ_k float64(rows[j][k])²))
TEXT ·nrm2RowsAVX2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), CX
	MOVQ rows_base+8(FP), AX
	MOVQ out_base+32(FP), DX
	MOVQ out_len+40(FP), R8
	SHLQ $2, CX
	CMPQ R8, $8
	JB   normfour

normeight:
	ROW_PTRS(0, R8, R9, R10, R11)
	ROW_PTRS(96, R12, R13, SI, DI)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   BX, BX

normeightk:
	ROW_LOAD(R8, R9, R10, R11)
	SQUARE_SUM(Y0)
	ROW_LOAD(R12, R13, SI, DI)
	SQUARE_SUM(Y1)
	ADDQ $16, BX
	CMPQ BX, CX
	JB   normeightk

	NORM_STORE(Y0, X0, 0)
	NORM_STORE(Y1, X1, 16)
	ADDQ $192, AX
	ADDQ $32, DX
	MOVQ out_base+32(FP), R8
	MOVQ out_len+40(FP), R9
	LEAQ (R8)(R9*4), R8 // end of out
	LEAQ 28(DX), R9
	CMPQ R9, R8
	JB   normeight      // eight or more rows left
	CMPQ DX, R8
	JB   normfour       // four rows left
	VZEROUPPER
	RET

normfour:
	ROW_PTRS(0, R8, R9, R10, R11)
	VXORPD Y0, Y0, Y0
	XORQ   BX, BX

normfourk:
	ROW_LOAD(R8, R9, R10, R11)
	SQUARE_SUM(Y0)
	ADDQ $16, BX
	CMPQ BX, CX
	JB   normfourk

	NORM_STORE(Y0, X0, 0)
	VZEROUPPER
	RET
