//go:build amd64 && !purego && !race

#include "textflag.h"

// AVX2 kernels for the gradient codec (codec.go). Each 8-lane block of a
// 1-bit row is one byte of the payload, lane k its bit k; each 8-lane block
// of a ternary row is two bytes, lane k its bits 2k and 2k+1. No kernel adds
// across lanes, and each lane computes exactly what the Go loop computes:
//
//   - the sign bit of lane k is VCMPPS with predicate GE_OQ (0x1D) against
//     +0, which is x >= 0: true for −0, false for NaN, and no exception
//     for a quiet NaN. VMOVMSKPS gathers the eight results into one byte;
//   - the maximum is VMAXPS with the loaded |x| as the first source and the
//     accumulator m as the second. Per lane that is Go's `if a > m { m = a }`:
//     MAXPS returns the second source on equality and whenever either is
//     NaN, so no NaN ever enters the accumulator. With the sign cleared no
//     −0 can meet a +0 either, so among the accumulated values equal means
//     the same bits, and the final combine across lanes (VPERM2F128,
//     VSHUFPS, VMAXPS) may take any order;
//   - the 1-bit decode picks ±scale per lane with VPCMPEQD and VBLENDVPS,
//     then adds it with VADDPS taking the row as the first source, as the
//     scalar ADDSS does, so a NaN row keeps its payload under a NaN scale;
//   - the ternary ratios load eight values, take their sign bits with
//     VMOVMSKPS, widen each half with VCVTPS2PD (exact), clear the float64
//     sign with VANDPS and divide by the widened divisor with VDIVPD, the
//     DIVSD per lane Go's float64 division is;
//   - the ternary decode broadcasts the block's two payload bytes to every
//     lane (VPBROADCASTW), keeps lane k's two code bits (VPAND), compares
//     them with code 1 and code 2 at that position (VPCMPEQD), and blends
//     pos and neg over −0 by the two masks; the add is the 1-bit decode's.
//
// len(x) is a positive multiple of 8 and len(bits) is len(x)/8 (len(codes)
// len(x)/4); the caller runs the tail through the Go loop.

// absmask is float32 with every bit but the sign set.
DATA absmask<>+0(SB)/4, $0x7fffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $4

// bitsel is 1 << k in dword lane k.
DATA bitsel<>+0(SB)/4, $1
DATA bitsel<>+4(SB)/4, $2
DATA bitsel<>+8(SB)/4, $4
DATA bitsel<>+12(SB)/4, $8
DATA bitsel<>+16(SB)/4, $16
DATA bitsel<>+20(SB)/4, $32
DATA bitsel<>+24(SB)/4, $64
DATA bitsel<>+28(SB)/4, $128
GLOBL bitsel<>(SB), RODATA|NOPTR, $32

// absmask64 is float64 with every bit but the sign set, in all four lanes.
DATA absmask64<>+0(SB)/8, $0x7fffffffffffffff
DATA absmask64<>+8(SB)/8, $0x7fffffffffffffff
DATA absmask64<>+16(SB)/8, $0x7fffffffffffffff
DATA absmask64<>+24(SB)/8, $0x7fffffffffffffff
GLOBL absmask64<>(SB), RODATA|NOPTR, $32

// negzero is float32 −0, the addend of ternary codes 0 and 3.
DATA negzero<>+0(SB)/4, $0x80000000
GLOBL negzero<>(SB), RODATA|NOPTR, $4

// codesel is 3 << 2k in dword lane k: the two code bits of value k.
DATA codesel<>+0(SB)/4, $0x0003
DATA codesel<>+4(SB)/4, $0x000c
DATA codesel<>+8(SB)/4, $0x0030
DATA codesel<>+12(SB)/4, $0x00c0
DATA codesel<>+16(SB)/4, $0x0300
DATA codesel<>+20(SB)/4, $0x0c00
DATA codesel<>+24(SB)/4, $0x3000
DATA codesel<>+28(SB)/4, $0xc000
GLOBL codesel<>(SB), RODATA|NOPTR, $32

// codeone is 1 << 2k in dword lane k: code 1 (+scale) at value k.
DATA codeone<>+0(SB)/4, $0x0001
DATA codeone<>+4(SB)/4, $0x0004
DATA codeone<>+8(SB)/4, $0x0010
DATA codeone<>+12(SB)/4, $0x0040
DATA codeone<>+16(SB)/4, $0x0100
DATA codeone<>+20(SB)/4, $0x0400
DATA codeone<>+24(SB)/4, $0x1000
DATA codeone<>+28(SB)/4, $0x4000
GLOBL codeone<>(SB), RODATA|NOPTR, $32

// codetwo is 2 << 2k in dword lane k: code 2 (−scale) at value k.
DATA codetwo<>+0(SB)/4, $0x0002
DATA codetwo<>+4(SB)/4, $0x0008
DATA codetwo<>+8(SB)/4, $0x0020
DATA codetwo<>+12(SB)/4, $0x0080
DATA codetwo<>+16(SB)/4, $0x0200
DATA codetwo<>+20(SB)/4, $0x0800
DATA codetwo<>+24(SB)/4, $0x2000
DATA codetwo<>+28(SB)/4, $0x8000
GLOBL codetwo<>(SB), RODATA|NOPTR, $32

// func signMaskAbsMaxAVX2(x []float32, bits []byte) float32
// bits[j] bit k = x[8j+k] >= 0; returns max |x| over the non-NaN values, from +0.
TEXT ·signMaskAbsMaxAVX2(SB), NOSPLIT, $0-52
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	MOVQ         bits_base+24(FP), DI
	LEAQ         (SI)(CX*4), CX
	VBROADCASTSS absmask<>(SB), Y15
	VXORPD       Y14, Y14, Y14 // +0, the comparand
	VXORPD       Y0, Y0, Y0    // m = +0

maskloop:
	VMOVUPS   (SI), Y1
	VCMPPS    $0x1D, Y14, Y1, Y2 // x >= +0, ordered
	VMOVMSKPS Y2, AX
	MOVB      AX, (DI)
	VANDPS    Y15, Y1, Y1
	VMAXPS    Y0, Y1, Y0         // m = |x| > m ? |x| : m
	ADDQ      $32, SI
	ADDQ      $1, DI
	CMPQ      SI, CX
	JB        maskloop

	VPERM2F128 $0x01, Y0, Y0, Y1
	VMAXPS     Y1, Y0, Y0
	VSHUFPS    $0x4E, Y0, Y0, Y1
	VMAXPS     Y1, Y0, Y0
	VSHUFPS    $0xB1, Y0, Y0, Y1
	VMAXPS     Y1, Y0, Y0
	VMOVSS     X0, ret+48(FP)
	VZEROUPPER
	RET

// func addSignedAVX2(bits []byte, pos, neg float32, x []float32)
// x[8j+k] += bits[j] bit k ? pos : neg
TEXT ·addSignedAVX2(SB), NOSPLIT, $0-56
	MOVQ         bits_base+0(FP), SI
	MOVQ         x_base+32(FP), DI
	MOVQ         x_len+40(FP), CX
	LEAQ         (DI)(CX*4), CX
	VBROADCASTSS pos+24(FP), Y13
	VBROADCASTSS neg+28(FP), Y14
	VMOVUPS      bitsel<>(SB), Y15

signedloop:
	VPBROADCASTB (SI), Y0
	VPAND        Y15, Y0, Y0
	VPCMPEQD     Y15, Y0, Y0       // lane k all ones iff bit k is set
	VBLENDVPS    Y0, Y13, Y14, Y1  // pos where set, neg where clear
	VMOVUPS      (DI), Y2
	VADDPS       Y1, Y2, Y2        // row + addend, the row first
	VMOVUPS      Y2, (DI)
	ADDQ         $1, SI
	ADDQ         $32, DI
	CMPQ         DI, CX
	JB           signedloop
	VZEROUPPER
	RET

// func addTernaryAVX2(codes []byte, pos, neg float32, x []float32)
// x[8j+k] += code k of codes[2j:2j+2] == 1 ? pos : == 2 ? neg : −0
TEXT ·addTernaryAVX2(SB), NOSPLIT, $0-56
	MOVQ         codes_base+0(FP), SI
	MOVQ         x_base+32(FP), DI
	MOVQ         x_len+40(FP), CX
	LEAQ         (DI)(CX*4), CX
	VBROADCASTSS pos+24(FP), Y10
	VBROADCASTSS neg+28(FP), Y11
	VBROADCASTSS negzero<>(SB), Y12
	VMOVUPS      codesel<>(SB), Y13
	VMOVUPS      codeone<>(SB), Y14
	VMOVUPS      codetwo<>(SB), Y15

ternaryloop:
	VPBROADCASTW (SI), Y0
	VPAND        Y13, Y0, Y0       // lane k: code k in place
	VPCMPEQD     Y14, Y0, Y1       // lane k all ones iff code k is 1
	VPCMPEQD     Y15, Y0, Y2       // lane k all ones iff code k is 2
	VBLENDVPS    Y1, Y10, Y12, Y3  // pos where code 1, −0 elsewhere
	VBLENDVPS    Y2, Y11, Y3, Y3   // neg where code 2
	VMOVUPS      (DI), Y4
	VADDPS       Y3, Y4, Y4        // row + addend, the row first
	VMOVUPS      Y4, (DI)
	ADDQ         $2, SI
	ADDQ         $32, DI
	CMPQ         DI, CX
	JB           ternaryloop
	VZEROUPPER
	RET

// func absRatiosAVX2(x []float32, d float32, p []float64, sign []byte)
// p[k] = float64(|x[k]|) / float64(d); sign[j] bit k = sign bit of x[8j+k]
TEXT ·absRatiosAVX2(SB), NOSPLIT, $0-80
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	MOVQ         p_base+32(FP), DI
	MOVQ         sign_base+56(FP), DX
	LEAQ         (SI)(CX*4), CX
	VBROADCASTSS d+24(FP), X14
	VCVTPS2PD    X14, Y14         // float64(d) in every lane
	VMOVUPS      absmask64<>(SB), Y15

ratioloop:
	VMOVUPS   (SI), Y0
	VMOVMSKPS Y0, AX              // the eight sign bits
	MOVB      AX, (DX)
	VCVTPS2PD (SI), Y1            // values 0-3, widened
	VCVTPS2PD 16(SI), Y2          // values 4-7
	VANDPS    Y15, Y1, Y1         // |v|: the sign cleared, NaN included
	VANDPS    Y15, Y2, Y2
	VDIVPD    Y14, Y1, Y1         // |v| / d
	VDIVPD    Y14, Y2, Y2
	VMOVUPS   Y1, (DI)
	VMOVUPS   Y2, 32(DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	ADDQ      $1, DX
	CMPQ      SI, CX
	JB        ratioloop
	VZEROUPPER
	RET
