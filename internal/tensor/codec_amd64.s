//go:build amd64 && !purego && !race

#include "textflag.h"

// AVX2 kernels for the 1-bit gradient codec (codec.go). Each 8-lane block of
// the row is one byte of the payload, lane k its bit k. Neither kernel adds
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
//   - the decode picks ±scale per lane with VPCMPEQD and VBLENDVPS, then
//     adds it with VADDPS taking the row as the first source, as the scalar
//     ADDSS does, so a NaN row keeps its payload under a NaN scale.
//
// len(x) is a positive multiple of 8 and len(bits) is len(x)/8; the caller
// runs the tail through the Go loop.

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
