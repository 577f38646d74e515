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
//	CX      columns left     BX   b at the current step
//	AX      scratch
//
// Each column block loads its outputs into registers, runs every step of
// the contraction on them, and stores them once.

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

// ADVANCE moves the outputs and b past a finished column block of n
// columns (bytes = 8n).
#define ADVANCE(n, bytes) \
	ADDQ $bytes, DI  \
	ADDQ $bytes, SI  \
	ADDQ $bytes, R11 \
	SUBQ $n, CX

// func gemmStripAVX512(o0, o1, a0, a1 *float64, lda int, b *float64, ldb, k, c int)
TEXT ·gemmStripAVX512(SB), NOSPLIT, $0-72
	ARGS

z32:
	CMPQ CX, $32
	JLT  z16
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 0(SI), Z4
	VMOVUPD 64(SI), Z5
	VMOVUPD 128(SI), Z6
	VMOVUPD 192(SI), Z7
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
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 0(SI)
	VMOVUPD Z5, 64(SI)
	VMOVUPD Z6, 128(SI)
	VMOVUPD Z7, 192(SI)
	ADVANCE(32, 256)
	JMP z32

z16:
	CMPQ CX, $16
	JLT  z8
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 0(SI), Z4
	VMOVUPD 64(SI), Z5
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
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z4, 0(SI)
	VMOVUPD Z5, 64(SI)
	ADVANCE(16, 128)

z8:
	CMPQ CX, $8
	JLT  zmask
	VMOVUPD 0(DI), Z0
	VMOVUPD 0(SI), Z4
	START

z8step:
	SKIP(z8next)
	VBROADCASTSD (R8)(DX*1), Z8
	VBROADCASTSD (R9)(DX*1), Z9
	VMOVUPD 0(BX), Z10
	MULADD(Z10, Z8, Z9, Z0, Z4, Z14, Z15)

z8next:
	NEXT(z8step)
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
	VMOVUPD.Z 0(DI), K1, Z0
	VMOVUPD.Z 0(SI), K1, Z4
	START

zmstep:
	SKIP(zmnext)
	VBROADCASTSD (R8)(DX*1), Z8
	VBROADCASTSD (R9)(DX*1), Z9
	VMOVUPD.Z 0(BX), K1, Z10
	MULADD(Z10, Z8, Z9, Z0, Z4, Z14, Z15)

zmnext:
	NEXT(zmstep)
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

// func gemmStripAVX2(o0, o1, a0, a1 *float64, lda int, b *float64, ldb, k, c int)
TEXT ·gemmStripAVX2(SB), NOSPLIT, $0-72
	ARGS

y16:
	CMPQ CX, $16
	JLT  y8
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 0(SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
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
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 0(SI), Y4
	VMOVUPD 32(SI), Y5
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
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y4, 0(SI)
	VMOVUPD Y5, 32(SI)
	ADVANCE(8, 64)

y4:
	CMPQ CX, $4
	JLT  ymask
	VMOVUPD 0(DI), Y0
	VMOVUPD 0(SI), Y4
	START

y4step:
	SKIP(y4next)
	VBROADCASTSD (R8)(DX*1), Y8
	VBROADCASTSD (R9)(DX*1), Y9
	VMOVUPD 0(BX), Y10
	MULADD(Y10, Y8, Y9, Y0, Y4, Y14, Y15)

y4next:
	NEXT(y4step)
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
	VMASKMOVPD 0(DI), Y13, Y0
	VMASKMOVPD 0(SI), Y13, Y4
	START

ymstep:
	SKIP(ymnext)
	VBROADCASTSD (R8)(DX*1), Y8
	VBROADCASTSD (R9)(DX*1), Y9
	VMASKMOVPD 0(BX), Y13, Y10
	MULADD(Y10, Y8, Y9, Y0, Y4, Y14, Y15)

ymnext:
	NEXT(ymstep)
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
