//go:build amd64 && !purego && !race

#include "textflag.h"

// AVX2 kernel for gathered ComplEx triple scoring (complex.go). Lanes are
// triples, never k: lane j of each accumulator is one of triple j's four
// float32 Dot3 chains, and it receives that chain's products in k order, so
// no sum is reordered and every output is exactly the bits of the Go loop:
//
//   - per triple, eight consecutive k of the four products (rr·hr)·tr,
//     (rr·hi)·ti, (ri·hr)·ti and (ri·hi)·tr are formed with VMULPS, the same
//     two roundings in Go's parse order as the scalar MULSS pairs;
//   - an 8x8 transpose (VUNPCKLPS/VUNPCKHPS, VSHUFPS, VPERM2F128) moves
//     triple j's eight products of one chain into lane j, and eight VADDPSs
//     add them to that chain's accumulator in k order, from +0;
//   - the epilogue is ScoreRows' ((a + b) + e) - f.
//
// One group scores 8 triples. The 32 product vectors of one step of 8 k
// (4 chains x 8 triples) do not fit the 16 YMM registers, so each triple's
// four are stored to the frame and each chain's eight are reloaded for its
// transpose: chain c of triple j is at j*128 + c*32(SP). Register use:
//
//	AX, DX, SI  the h, r and t slice headers of the group (24 bytes each)
//	CX          d*4: the byte offset of a row's imaginary half, and the end
//	            of the k loop
//	BX          k in bytes
//	R8, R9, R10 the h, r and t rows of the triple at hand, advanced to k
//	DI, R13     next output, end of out
//	Y12..Y15    the a, b, e and f accumulators of the group's 8 triples
//
// d is a positive multiple of 8 and len(out) a positive multiple of 8; the
// caller runs everything else through the Go loop.

// PRODUCTS stores, for triple j (slice headers at hdr, frame slot slot), the
// four product vectors of k..k+7.
#define PRODUCTS(hdr, slot) \
	MOVQ    hdr(AX), R8; \
	MOVQ    hdr(DX), R9; \
	MOVQ    hdr(SI), R10; \
	ADDQ    BX, R8; \
	ADDQ    BX, R9; \
	ADDQ    BX, R10; \
	VMOVUPS (R9), Y0; \
	VMOVUPS (R9)(CX*1), Y1; \
	VMOVUPS (R8), Y2; \
	VMOVUPS (R8)(CX*1), Y3; \
	VMULPS  Y2, Y0, Y4; \
	VMULPS  Y3, Y0, Y5; \
	VMULPS  Y2, Y1, Y6; \
	VMULPS  Y3, Y1, Y7; \
	VMULPS  (R10), Y4, Y4; \
	VMULPS  (R10)(CX*1), Y5, Y5; \
	VMULPS  (R10)(CX*1), Y6, Y6; \
	VMULPS  (R10), Y7, Y7; \
	VMOVUPS Y4, slot(SP); \
	VMOVUPS Y5, slot+32(SP); \
	VMOVUPS Y6, slot+64(SP); \
	VMOVUPS Y7, slot+96(SP)

// CHAIN loads chain c's products of the 8 triples (register j = triple j,
// lane = k), transposes them (register = k, lane j = triple j) and adds the
// eight k into acc in order.
#define CHAIN(c, acc) \
	VMOVUPS    c(SP), Y0; \
	VMOVUPS    c+128(SP), Y1; \
	VMOVUPS    c+256(SP), Y2; \
	VMOVUPS    c+384(SP), Y3; \
	VMOVUPS    c+512(SP), Y4; \
	VMOVUPS    c+640(SP), Y5; \
	VMOVUPS    c+768(SP), Y6; \
	VMOVUPS    c+896(SP), Y7; \
	VUNPCKLPS  Y1, Y0, Y8; \
	VUNPCKHPS  Y1, Y0, Y1; \
	VUNPCKLPS  Y3, Y2, Y9; \
	VUNPCKHPS  Y3, Y2, Y3; \
	VUNPCKLPS  Y5, Y4, Y10; \
	VUNPCKHPS  Y5, Y4, Y5; \
	VUNPCKLPS  Y7, Y6, Y11; \
	VUNPCKHPS  Y7, Y6, Y7; \
	VSHUFPS    $0x44, Y9, Y8, Y0; \
	VSHUFPS    $0xEE, Y9, Y8, Y2; \
	VSHUFPS    $0x44, Y3, Y1, Y4; \
	VSHUFPS    $0xEE, Y3, Y1, Y6; \
	VSHUFPS    $0x44, Y11, Y10, Y1; \
	VSHUFPS    $0xEE, Y11, Y10, Y3; \
	VSHUFPS    $0x44, Y7, Y5, Y8; \
	VSHUFPS    $0xEE, Y7, Y5, Y9; \
	VPERM2F128 $0x20, Y1, Y0, Y10; \
	VADDPS     Y10, acc, acc; \
	VPERM2F128 $0x20, Y3, Y2, Y10; \
	VADDPS     Y10, acc, acc; \
	VPERM2F128 $0x20, Y8, Y4, Y10; \
	VADDPS     Y10, acc, acc; \
	VPERM2F128 $0x20, Y9, Y6, Y10; \
	VADDPS     Y10, acc, acc; \
	VPERM2F128 $0x31, Y1, Y0, Y10; \
	VADDPS     Y10, acc, acc; \
	VPERM2F128 $0x31, Y3, Y2, Y10; \
	VADDPS     Y10, acc, acc; \
	VPERM2F128 $0x31, Y8, Y4, Y10; \
	VADDPS     Y10, acc, acc; \
	VPERM2F128 $0x31, Y9, Y6, Y10; \
	VADDPS     Y10, acc, acc

// func complExTriplesAVX2(d int, h, r, t [][]float32, out []float32)
// out[j] = Dot3(rr,hr,tr) + Dot3(rr,hi,ti) + Dot3(ri,hr,ti) - Dot3(ri,hi,tr)
// of the triple (h[j], r[j], t[j]).
TEXT ·complExTriplesAVX2(SB), 0, $1024-104
	MOVQ d+0(FP), CX
	MOVQ h_base+8(FP), AX
	MOVQ r_base+32(FP), DX
	MOVQ t_base+56(FP), SI
	MOVQ out_base+80(FP), DI
	MOVQ out_len+88(FP), R13
	SHLQ $2, CX
	LEAQ (DI)(R13*4), R13

group:
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	XORQ   BX, BX

k:
	PRODUCTS(0, 0)
	PRODUCTS(24, 128)
	PRODUCTS(48, 256)
	PRODUCTS(72, 384)
	PRODUCTS(96, 512)
	PRODUCTS(120, 640)
	PRODUCTS(144, 768)
	PRODUCTS(168, 896)
	CHAIN(0, Y12)
	CHAIN(32, Y13)
	CHAIN(64, Y14)
	CHAIN(96, Y15)
	ADDQ $32, BX
	CMPQ BX, CX
	JB   k

	VADDPS  Y13, Y12, Y12
	VADDPS  Y14, Y12, Y12
	VSUBPS  Y15, Y12, Y12
	VMOVUPS Y12, (DI)
	ADDQ    $32, DI
	ADDQ    $192, AX
	ADDQ    $192, DX
	ADDQ    $192, SI
	CMPQ    DI, R13
	JB      group
	VZEROUPPER
	RET
