//go:build amd64 && !purego

#include "textflag.h"

// The gradient adds (train.go) in lanes: addGo, addScaledGo, drainGo and
// maskBiasGo, four elements a vector. Lanes run across elements only,
// never within one sum, and every operation is a packed compare, AND,
// multiply or add — no FMA — taken in the Go loop's order. Each
// instruction's sources are in the compiled loop's order too (the first
// source is the one whose NaN x86 keeps when both are NaN): dst + src,
// but src·s + dst, the product first. So a lane's bits equal the Go
// loop's for every input (TestGradLanesMatchGo).
//
//	DI  dst (g)   SI  src (out)   DX  db   BX  the byte offset, CX  its end

// func addAVX2(dst, src *float64, n int)
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-128, DX // the end of the whole 16-element blocks

block:
	CMPQ    BX, DX
	JGE     vec
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3
	VADDPD  (SI)(BX*1), Y0, Y0
	VADDPD  32(SI)(BX*1), Y1, Y1
	VADDPD  64(SI)(BX*1), Y2, Y2
	VADDPD  96(SI)(BX*1), Y3, Y3
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	JMP     block

vec:
	CMPQ    BX, CX
	JGE     done
	VMOVUPD (DI)(BX*1), Y0
	VADDPD  (SI)(BX*1), Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     vec

done:
	VZEROUPPER
	RET

// SCALED adds src·s into one vector of dst at offset o, through v
// (Y15 holds s): the product first, as addScaledGo's compiled loop has it.
#define SCALED(o, v) \
	VMOVUPD o(SI)(BX*1), v \
	VMULPD  Y15, v, v \
	VADDPD  o(DI)(BX*1), v, v \
	VMOVUPD v, o(DI)(BX*1)

// func addScaledAVX2(dst, src *float64, n int, s float64)
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	SHLQ         $3, CX
	VBROADCASTSD s+24(FP), Y15
	XORQ         BX, BX
	MOVQ         CX, DX
	ANDQ         $-128, DX

sblock:
	CMPQ BX, DX
	JGE  svec
	SCALED(0, Y0)
	SCALED(32, Y1)
	SCALED(64, Y2)
	SCALED(96, Y3)
	ADDQ $128, BX
	JMP  sblock

svec:
	CMPQ BX, CX
	JGE  sdone
	SCALED(0, Y0)
	ADDQ $32, BX
	JMP  svec

sdone:
	VZEROUPPER
	RET

// func drainAVX2(dst, src *float64, n int, s float64)
TEXT ·drainAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	SHLQ         $3, CX
	VBROADCASTSD s+24(FP), Y15
	VXORPD       Y14, Y14, Y14
	XORQ         BX, BX
	MOVQ         CX, DX
	ANDQ         $-128, DX

dblock:
	CMPQ    BX, DX
	JGE     dvec
	SCALED(0, Y0)
	SCALED(32, Y1)
	SCALED(64, Y2)
	SCALED(96, Y3)
	VMOVUPD Y14, (SI)(BX*1)
	VMOVUPD Y14, 32(SI)(BX*1)
	VMOVUPD Y14, 64(SI)(BX*1)
	VMOVUPD Y14, 96(SI)(BX*1)
	ADDQ    $128, BX
	JMP     dblock

dvec:
	CMPQ    BX, CX
	JGE     ddone
	SCALED(0, Y0)
	VMOVUPD Y14, (SI)(BX*1)
	ADDQ    $32, BX
	JMP     dvec

ddone:
	VZEROUPPER
	RET

// func maskBiasAVX2(gr, out, db *float64, rows, c, n int)
//
// Row by row, one vector of g at a time: where out is not greater than
// zero (an ordered compare, false for NaN) g is ANDed with zeros, +0.0,
// as maskBiasGo stores; then db + g, db first, as addGo has it. A nil out
// or db skips its step.
TEXT ·maskBiasAVX2(SB), NOSPLIT, $0-48
	MOVQ   gr+0(FP), DI
	MOVQ   out+8(FP), SI
	MOVQ   db+16(FP), DX
	MOVQ   rows+24(FP), R8
	MOVQ   c+32(FP), R9
	SHLQ   $3, R9 // the row stride in bytes
	MOVQ   n+40(FP), CX
	SHLQ   $3, CX
	VXORPD Y15, Y15, Y15

row:
	TESTQ R8, R8
	JZ    mdone
	XORQ  BX, BX

col:
	CMPQ    BX, CX
	JGE     next
	VMOVUPD (DI)(BX*1), Y0
	TESTQ   SI, SI
	JZ      bias
	VCMPPD  $0x11, (SI)(BX*1), Y15, Y1 // 0 < out, LT_OQ
	VANDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)

bias:
	TESTQ   DX, DX
	JZ      step
	VMOVUPD (DX)(BX*1), Y2
	VADDPD  Y0, Y2, Y2
	VMOVUPD Y2, (DX)(BX*1)

step:
	ADDQ $32, BX
	JMP  col

next:
	ADDQ  R9, DI
	DECQ  R8
	TESTQ SI, SI
	JZ    row
	ADDQ  R9, SI
	JMP   row

mdone:
	VZEROUPPER
	RET
