//go:build amd64 && !purego

#include "textflag.h"

// One contraction step on four (or, with the SD forms, one) output
// columns of both rows: acc0 += pk * b, acc1 += qk * b, the product
// rounded before the sum (no FMA). The accumulator is VADDPD's first
// source, as it is ADDSD's in the compiled Go kernel.
#define STEP(MUL, ADD, b, pk, qk, acc0, acc1, t0, t1) \
	MUL b, pk, t0     \
	ADD t0, acc0, acc0 \
	MUL b, qk, t1     \
	ADD t1, acc1, acc1

// func gemmBlockAVX2(o0, o1, b0, b1, b2, b3 *float64, p *[8]float64, c int)
TEXT ·gemmBlockAVX2(SB), NOSPLIT, $0-64
	MOVQ o0+0(FP), DI
	MOVQ o1+8(FP), SI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ p+48(FP), AX
	MOVQ c+56(FP), CX

	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15

	SHLQ $3, CX      // CX = c*8: end offset
	MOVQ CX, DX
	ANDQ $-32, DX    // DX = end offset of the four-column part
	XORQ BX, BX      // BX = byte offset of column j

loop4:
	CMPQ BX, DX
	JGE  tail
	VMOVUPD (DI)(BX*1), Y4
	VMOVUPD (SI)(BX*1), Y5
	VMOVUPD (R8)(BX*1), Y0
	VMOVUPD (R9)(BX*1), Y1
	VMOVUPD (R10)(BX*1), Y2
	VMOVUPD (R11)(BX*1), Y3
	STEP(VMULPD, VADDPD, Y0, Y8, Y12, Y4, Y5, Y6, Y7)
	STEP(VMULPD, VADDPD, Y1, Y9, Y13, Y4, Y5, Y6, Y7)
	STEP(VMULPD, VADDPD, Y2, Y10, Y14, Y4, Y5, Y6, Y7)
	STEP(VMULPD, VADDPD, Y3, Y11, Y15, Y4, Y5, Y6, Y7)
	VMOVUPD Y4, (DI)(BX*1)
	VMOVUPD Y5, (SI)(BX*1)
	ADDQ $32, BX
	JMP  loop4

tail:
	CMPQ BX, CX
	JGE  done
	VMOVSD (DI)(BX*1), X4
	VMOVSD (SI)(BX*1), X5
	VMOVSD (R8)(BX*1), X0
	VMOVSD (R9)(BX*1), X1
	VMOVSD (R10)(BX*1), X2
	VMOVSD (R11)(BX*1), X3
	STEP(VMULSD, VADDSD, X0, X8, X12, X4, X5, X6, X7)
	STEP(VMULSD, VADDSD, X1, X9, X13, X4, X5, X6, X7)
	STEP(VMULSD, VADDSD, X2, X10, X14, X4, X5, X6, X7)
	STEP(VMULSD, VADDSD, X3, X11, X15, X4, X5, X6, X7)
	VMOVSD X4, (DI)(BX*1)
	VMOVSD X5, (SI)(BX*1)
	ADDQ $8, BX
	JMP  tail

done:
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
