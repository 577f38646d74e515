//go:build amd64 && !purego

#include "textflag.h"

// The strip (gemm.go) in two widths. Both kernels share one register
// plan:
//
//	DI, SI  the two output rows at the current column block
//	R8, R9  the two rows' scalars: step k's at (R8)(DX*1), (R9)(DX*1)
//	R10     lda in bytes     R12  ldb in bytes
//	R11     b at the current column block, step 0
//	R13     K·lda in bytes: DX's end
//	CX      columns left     BX   b at the current step, then the bias
//	AX      scratch
//
// Each column block sets its outputs to +0.0 in registers, runs every
// step of the contraction on them, finishes them (the bias, then the
// ReLU) and stores them once, never reading the outputs. The
// AVX-512 strip's widest block, 2 × 64, keeps row 0's outputs in Z0–Z7
// and row 1's in Z16–Z23, its scalars in Z8 and Z9 and its b vectors in
// Z10–Z13 and Z24–Z27; every narrower block, on either kernel, keeps row
// 0's outputs from register 0 and row 1's from register 4.

// START rewinds to step 0 of the column block: BX = b there, DX = 0.
#define START \
	MOVQ R11, BX \
	XORQ DX, DX

// SKIP jumps to next when both of step k's scalars are ±0.0: the OR of
// their bits, shifted past the sign, is zero.
#define SKIP(next) \
	MOVQ (R8)(DX*1), AX \
	ORQ  (R9)(DX*1), AX \
	SHLQ $1, AX         \
	JEQ  next

// MULADD is one step on one vector of both rows, acc0 += s0·bv and
// acc1 += s1·bv, each product rounded before its sum (no FMA).
#define MULADD(bv, s0, s1, acc0, acc1, t0, t1) \
	VMULPD bv, s0, t0     \
	VADDPD t0, acc0, acc0 \
	VMULPD bv, s1, t1     \
	VADDPD t1, acc1, acc1

// NEXT moves to step k+1 and loops back to top while steps remain.
#define NEXT(top) \
	ADDQ R10, DX \
	ADDQ R12, BX \
	CMPQ DX, R13 \
	JLT  top

// ARGS loads the arguments into the register plan.
#define ARGS \
	MOVQ o0+0(FP), DI   \
	MOVQ o1+8(FP), SI   \
	MOVQ a0+16(FP), R8  \
	MOVQ a1+24(FP), R9  \
	MOVQ lda+32(FP), R10 \
	SHLQ $3, R10        \
	MOVQ b+40(FP), R11  \
	MOVQ ldb+48(FP), R12 \
	SHLQ $3, R12        \
	MOVQ k+56(FP), R13  \
	IMULQ R10, R13      \
	MOVQ c+64(FP), CX

// BIASAT points BX at the bias for the current column block, c − CX
// columns in, and jumps to none when there is no bias (a nil pointer).
#define BIASAT(none) \
	MOVQ  bias+72(FP), BX \
	TESTQ BX, BX          \
	JEQ   none            \
	MOVQ  c+64(FP), AX    \
	SUBQ  CX, AX          \
	LEAQ  (BX)(AX*8), BX

// ADDBIAS adds one bias vector to both rows' outputs after the last
// term. The bias is the first source, as in the compiled epilogue's
// ADDSD: where both are NaN, the bias's payload is the one kept.
#define ADDBIAS(bv, acc0, acc1) \
	VADDPD acc0, bv, acc0 \
	VADDPD acc1, bv, acc1

// RELUON jumps to none unless the ReLU is on.
#define RELUON(none) \
	CMPB relu+80(FP), $0 \
	JEQ  none

// RELU is Go's max(v, 0) on amd64, bit for bit: VMAXPD with +0.0 as its
// first source returns v, its second, where v is above +0.0, a NaN or a
// zero, and +0.0 where v is negative; clearing the sign bit then turns
// −0.0 into +0.0, as max does, and leaves a NaN as max leaves it on
// amd64: its payload kept, its sign cleared. zero holds +0.0 and abs
// holds 0x7fff…f in every lane; PAND is VPANDQ on zmm (AVX-512F has no
// VANDPD), VANDPD on ymm.
#define RELU(acc, zero, abs, PAND) \
	VMAXPD acc, zero, acc \
	PAND   abs, acc, acc

// RELUCONST512 and RELUCONST256 set zero to +0.0 and abs to 0x7fff…f.
#define RELUCONST512(zero, abs) \
	VPXORQ     zero, zero, zero \
	VPTERNLOGQ $0xff, abs, abs, abs \
	VPSRLQ     $1, abs, abs

#define RELUCONST256(zero, abs) \
	VXORPD   zero, zero, zero \
	VPCMPEQQ abs, abs, abs \
	VPSRLQ   $1, abs, abs

// ADVANCE moves the outputs and b past a finished column block of n
// columns (bytes = 8n).
#define ADVANCE(n, bytes) \
	ADDQ $bytes, DI  \
	ADDQ $bytes, SI  \
	ADDQ $bytes, R11 \
	SUBQ $n, CX

// func gemmStripAVX512(o0, o1, a0, a1 *float64, lda int, b *float64, ldb, k, c int, bias *float64, relu bool)
TEXT ·gemmStripAVX512(SB), NOSPLIT, $0-81
	ARGS

z64:
	CMPQ CX, $64
	JLT  z32
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	START

z64step:
	SKIP(z64next)
	VBROADCASTSD (R8)(DX*1), Z8
	VBROADCASTSD (R9)(DX*1), Z9
	VMOVUPD 0(BX), Z10
	VMOVUPD 64(BX), Z11
	VMOVUPD 128(BX), Z12
	VMOVUPD 192(BX), Z13
	VMOVUPD 256(BX), Z24
	VMOVUPD 320(BX), Z25
	VMOVUPD 384(BX), Z26
	VMOVUPD 448(BX), Z27
	MULADD(Z10, Z8, Z9, Z0, Z16, Z14, Z15)
	MULADD(Z11, Z8, Z9, Z1, Z17, Z28, Z29)
	MULADD(Z12, Z8, Z9, Z2, Z18, Z14, Z15)
	MULADD(Z13, Z8, Z9, Z3, Z19, Z28, Z29)
	MULADD(Z24, Z8, Z9, Z4, Z20, Z14, Z15)
	MULADD(Z25, Z8, Z9, Z5, Z21, Z28, Z29)
	MULADD(Z26, Z8, Z9, Z6, Z22, Z14, Z15)
	MULADD(Z27, Z8, Z9, Z7, Z23, Z28, Z29)

z64next:
	NEXT(z64step)
	BIASAT(z64relu)
	VMOVUPD 0(BX), Z10
	VMOVUPD 64(BX), Z11
	VMOVUPD 128(BX), Z12
	VMOVUPD 192(BX), Z13
	VMOVUPD 256(BX), Z24
	VMOVUPD 320(BX), Z25
	VMOVUPD 384(BX), Z26
	VMOVUPD 448(BX), Z27
	ADDBIAS(Z10, Z0, Z16)
	ADDBIAS(Z11, Z1, Z17)
	ADDBIAS(Z12, Z2, Z18)
	ADDBIAS(Z13, Z3, Z19)
	ADDBIAS(Z24, Z4, Z20)
	ADDBIAS(Z25, Z5, Z21)
	ADDBIAS(Z26, Z6, Z22)
	ADDBIAS(Z27, Z7, Z23)

z64relu:
	RELUON(z64store)
	RELUCONST512(Z8, Z9)
	RELU(Z0, Z8, Z9, VPANDQ)
	RELU(Z1, Z8, Z9, VPANDQ)
	RELU(Z2, Z8, Z9, VPANDQ)
	RELU(Z3, Z8, Z9, VPANDQ)
	RELU(Z4, Z8, Z9, VPANDQ)
	RELU(Z5, Z8, Z9, VPANDQ)
	RELU(Z6, Z8, Z9, VPANDQ)
	RELU(Z7, Z8, Z9, VPANDQ)
	RELU(Z16, Z8, Z9, VPANDQ)
	RELU(Z17, Z8, Z9, VPANDQ)
	RELU(Z18, Z8, Z9, VPANDQ)
	RELU(Z19, Z8, Z9, VPANDQ)
	RELU(Z20, Z8, Z9, VPANDQ)
	RELU(Z21, Z8, Z9, VPANDQ)
	RELU(Z22, Z8, Z9, VPANDQ)
	RELU(Z23, Z8, Z9, VPANDQ)

z64store:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VMOVUPD Z16, 0(SI)
	VMOVUPD Z17, 64(SI)
	VMOVUPD Z18, 128(SI)
	VMOVUPD Z19, 192(SI)
	VMOVUPD Z20, 256(SI)
	VMOVUPD Z21, 320(SI)
	VMOVUPD Z22, 384(SI)
	VMOVUPD Z23, 448(SI)
	ADVANCE(64, 512)
	JMP z64

z32:
	CMPQ CX, $32
	JLT  z16
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	START

z32step:
	SKIP(z32next)
	VBROADCASTSD (R8)(DX*1), Z8
	VBROADCASTSD (R9)(DX*1), Z9
	VMOVUPD 0(BX), Z10
	VMOVUPD 64(BX), Z11
	VMOVUPD 128(BX), Z12
	VMOVUPD 192(BX), Z13
	MULADD(Z10, Z8, Z9, Z0, Z4, Z14, Z15)
	MULADD(Z11, Z8, Z9, Z1, Z5, Z14, Z15)
	MULADD(Z12, Z8, Z9, Z2, Z6, Z14, Z15)
	MULADD(Z13, Z8, Z9, Z3, Z7, Z14, Z15)

z32next:
	NEXT(z32step)
	BIASAT(z32relu)
	VMOVUPD 0(BX), Z10
	VMOVUPD 64(BX), Z11
	VMOVUPD 128(BX), Z12
	VMOVUPD 192(BX), Z13
	ADDBIAS(Z10, Z0, Z4)
	ADDBIAS(Z11, Z1, Z5)
	ADDBIAS(Z12, Z2, Z6)
	ADDBIAS(Z13, Z3, Z7)

z32relu:
	RELUON(z32store)
	RELUCONST512(Z8, Z9)
	RELU(Z0, Z8, Z9, VPANDQ)
	RELU(Z1, Z8, Z9, VPANDQ)
	RELU(Z2, Z8, Z9, VPANDQ)
	RELU(Z3, Z8, Z9, VPANDQ)
	RELU(Z4, Z8, Z9, VPANDQ)
	RELU(Z5, Z8, Z9, VPANDQ)
	RELU(Z6, Z8, Z9, VPANDQ)
	RELU(Z7, Z8, Z9, VPANDQ)

z32store:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 0(SI)
	VMOVUPD Z5, 64(SI)
	VMOVUPD Z6, 128(SI)
	VMOVUPD Z7, 192(SI)
	ADVANCE(32, 256)

z16:
	CMPQ CX, $16
	JLT  z8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	START

z16step:
	SKIP(z16next)
	VBROADCASTSD (R8)(DX*1), Z8
	VBROADCASTSD (R9)(DX*1), Z9
	VMOVUPD 0(BX), Z10
	VMOVUPD 64(BX), Z11
	MULADD(Z10, Z8, Z9, Z0, Z4, Z14, Z15)
	MULADD(Z11, Z8, Z9, Z1, Z5, Z14, Z15)

z16next:
	NEXT(z16step)
	BIASAT(z16relu)
	VMOVUPD 0(BX), Z10
	VMOVUPD 64(BX), Z11
	ADDBIAS(Z10, Z0, Z4)
	ADDBIAS(Z11, Z1, Z5)

z16relu:
	RELUON(z16store)
	RELUCONST512(Z8, Z9)
	RELU(Z0, Z8, Z9, VPANDQ)
	RELU(Z1, Z8, Z9, VPANDQ)
	RELU(Z4, Z8, Z9, VPANDQ)
	RELU(Z5, Z8, Z9, VPANDQ)

z16store:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z4, 0(SI)
	VMOVUPD Z5, 64(SI)
	ADVANCE(16, 128)

z8:
	CMPQ CX, $8
	JLT  zmask
	VPXORQ Z0, Z0, Z0
	VPXORQ Z4, Z4, Z4
	START

z8step:
	SKIP(z8next)
	VBROADCASTSD (R8)(DX*1), Z8
	VBROADCASTSD (R9)(DX*1), Z9
	VMOVUPD 0(BX), Z10
	MULADD(Z10, Z8, Z9, Z0, Z4, Z14, Z15)

z8next:
	NEXT(z8step)
	BIASAT(z8relu)
	VMOVUPD 0(BX), Z10
	ADDBIAS(Z10, Z0, Z4)

z8relu:
	RELUON(z8store)
	RELUCONST512(Z8, Z9)
	RELU(Z0, Z8, Z9, VPANDQ)
	RELU(Z4, Z8, Z9, VPANDQ)

z8store:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z4, 0(SI)
	ADVANCE(8, 64)

	// The last c mod 8 columns: one vector under the lane mask K1, whose
	// loads read zero and whose stores write nothing past the row.
zmask:
	TESTQ CX, CX
	JEQ   zdone
	MOVQ  $1, AX
	SHLQ  CX, AX
	SUBQ  $1, AX
	KMOVW AX, K1
	VPXORQ Z0, Z0, Z0
	VPXORQ Z4, Z4, Z4
	START

zmstep:
	SKIP(zmnext)
	VBROADCASTSD (R8)(DX*1), Z8
	VBROADCASTSD (R9)(DX*1), Z9
	VMOVUPD.Z 0(BX), K1, Z10
	MULADD(Z10, Z8, Z9, Z0, Z4, Z14, Z15)

zmnext:
	NEXT(zmstep)
	BIASAT(zmrelu)
	VMOVUPD.Z 0(BX), K1, Z10
	ADDBIAS(Z10, Z0, Z4)

zmrelu:
	RELUON(zmstore)
	RELUCONST512(Z8, Z9)
	RELU(Z0, Z8, Z9, VPANDQ)
	RELU(Z4, Z8, Z9, VPANDQ)

zmstore:
	VMOVUPD Z0, K1, 0(DI)
	VMOVUPD Z4, K1, 0(SI)

zdone:
	VZEROUPPER
	RET

// laneMask<>+8(4-n) holds a ymm mask of the low n lanes, n = 1…3.
DATA laneMask<>+0(SB)/8, $-1
DATA laneMask<>+8(SB)/8, $-1
DATA laneMask<>+16(SB)/8, $-1
DATA laneMask<>+24(SB)/8, $-1
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $64

// func gemmStripAVX2(o0, o1, a0, a1 *float64, lda int, b *float64, ldb, k, c int, bias *float64, relu bool)
TEXT ·gemmStripAVX2(SB), NOSPLIT, $0-81
	ARGS

y16:
	CMPQ CX, $16
	JLT  y8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	START

y16step:
	SKIP(y16next)
	VBROADCASTSD (R8)(DX*1), Y8
	VBROADCASTSD (R9)(DX*1), Y9
	VMOVUPD 0(BX), Y10
	VMOVUPD 32(BX), Y11
	VMOVUPD 64(BX), Y12
	VMOVUPD 96(BX), Y13
	MULADD(Y10, Y8, Y9, Y0, Y4, Y14, Y15)
	MULADD(Y11, Y8, Y9, Y1, Y5, Y14, Y15)
	MULADD(Y12, Y8, Y9, Y2, Y6, Y14, Y15)
	MULADD(Y13, Y8, Y9, Y3, Y7, Y14, Y15)

y16next:
	NEXT(y16step)
	BIASAT(y16relu)
	VMOVUPD 0(BX), Y10
	VMOVUPD 32(BX), Y11
	VMOVUPD 64(BX), Y12
	VMOVUPD 96(BX), Y13
	ADDBIAS(Y10, Y0, Y4)
	ADDBIAS(Y11, Y1, Y5)
	ADDBIAS(Y12, Y2, Y6)
	ADDBIAS(Y13, Y3, Y7)

y16relu:
	RELUON(y16store)
	RELUCONST256(Y8, Y9)
	RELU(Y0, Y8, Y9, VANDPD)
	RELU(Y1, Y8, Y9, VANDPD)
	RELU(Y2, Y8, Y9, VANDPD)
	RELU(Y3, Y8, Y9, VANDPD)
	RELU(Y4, Y8, Y9, VANDPD)
	RELU(Y5, Y8, Y9, VANDPD)
	RELU(Y6, Y8, Y9, VANDPD)
	RELU(Y7, Y8, Y9, VANDPD)

y16store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 0(SI)
	VMOVUPD Y5, 32(SI)
	VMOVUPD Y6, 64(SI)
	VMOVUPD Y7, 96(SI)
	ADVANCE(16, 128)
	JMP y16

y8:
	CMPQ CX, $8
	JLT  y4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	START

y8step:
	SKIP(y8next)
	VBROADCASTSD (R8)(DX*1), Y8
	VBROADCASTSD (R9)(DX*1), Y9
	VMOVUPD 0(BX), Y10
	VMOVUPD 32(BX), Y11
	MULADD(Y10, Y8, Y9, Y0, Y4, Y14, Y15)
	MULADD(Y11, Y8, Y9, Y1, Y5, Y14, Y15)

y8next:
	NEXT(y8step)
	BIASAT(y8relu)
	VMOVUPD 0(BX), Y10
	VMOVUPD 32(BX), Y11
	ADDBIAS(Y10, Y0, Y4)
	ADDBIAS(Y11, Y1, Y5)

y8relu:
	RELUON(y8store)
	RELUCONST256(Y8, Y9)
	RELU(Y0, Y8, Y9, VANDPD)
	RELU(Y1, Y8, Y9, VANDPD)
	RELU(Y4, Y8, Y9, VANDPD)
	RELU(Y5, Y8, Y9, VANDPD)

y8store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y4, 0(SI)
	VMOVUPD Y5, 32(SI)
	ADVANCE(8, 64)

y4:
	CMPQ CX, $4
	JLT  ymask
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	START

y4step:
	SKIP(y4next)
	VBROADCASTSD (R8)(DX*1), Y8
	VBROADCASTSD (R9)(DX*1), Y9
	VMOVUPD 0(BX), Y10
	MULADD(Y10, Y8, Y9, Y0, Y4, Y14, Y15)

y4next:
	NEXT(y4step)
	BIASAT(y4relu)
	VMOVUPD 0(BX), Y10
	ADDBIAS(Y10, Y0, Y4)

y4relu:
	RELUON(y4store)
	RELUCONST256(Y8, Y9)
	RELU(Y0, Y8, Y9, VANDPD)
	RELU(Y4, Y8, Y9, VANDPD)

y4store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y4, 0(SI)
	ADVANCE(4, 32)

	// The last c mod 4 columns: one vector under the lane mask Y13, whose
	// loads read zero and whose stores write nothing past the row.
ymask:
	TESTQ CX, CX
	JEQ   ydone
	LEAQ  laneMask<>(SB), AX
	MOVQ  $4, DX
	SUBQ  CX, DX
	VMOVDQU (AX)(DX*8), Y13
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	START

ymstep:
	SKIP(ymnext)
	VBROADCASTSD (R8)(DX*1), Y8
	VBROADCASTSD (R9)(DX*1), Y9
	VMASKMOVPD 0(BX), Y13, Y10
	MULADD(Y10, Y8, Y9, Y0, Y4, Y14, Y15)

ymnext:
	NEXT(ymstep)
	BIASAT(ymrelu)
	VMASKMOVPD 0(BX), Y13, Y10
	ADDBIAS(Y10, Y0, Y4)

ymrelu:
	RELUON(ymstore)
	RELUCONST256(Y8, Y9)
	RELU(Y0, Y8, Y9, VANDPD)
	RELU(Y4, Y8, Y9, VANDPD)

ymstore:
	VMASKMOVPD Y0, Y13, 0(DI)
	VMASKMOVPD Y4, Y13, 0(SI)

ydone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
