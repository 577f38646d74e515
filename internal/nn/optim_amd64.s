//go:build amd64 && !purego

#include "textflag.h"

// Adam's update (optim.go) in lanes: adamGo's loop, four elements a
// vector. Lanes run across elements only, and every operation is a
// packed multiply, add, subtract, divide or square root — no FMA — taken
// in adamGo's order, so each lane rounds exactly where the scalar loop
// does. The sources are also in the compiled loop's order (the first
// source is the one whose NaN x86 keeps when both are NaN), so a lane's
// bits equal adamGo's for every input (TestAdamLanesMatchGo).
//
//	DI, SI, R8, R9  p, gr, m, v     BX  the byte offset, CX  its end
//	Y7 … Y15        the constants   (adamConsts, nine float64s, broadcast)

// func adamAVX2(p, gr, m, v *float64, n int, k *adamConsts)
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ gr+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	SHLQ $3, CX
	MOVQ k+40(FP), AX
	XORQ BX, BX

	VBROADCASTSD 0(AX), Y7   // scale
	VBROADCASTSD 8(AX), Y8   // beta1
	VBROADCASTSD 16(AX), Y9  // omb1
	VBROADCASTSD 24(AX), Y10 // beta2
	VBROADCASTSD 32(AX), Y11 // omb2
	VBROADCASTSD 40(AX), Y12 // lr
	VBROADCASTSD 48(AX), Y13 // b1c
	VBROADCASTSD 56(AX), Y14 // b2c
	VBROADCASTSD 64(AX), Y15 // eps

	// One vector of elements at offset BX, in adamGo's order:
	//
	//	G = scale·g
	//	m = omb1·G + beta1·m
	//	v = (omb2·G)·G + beta2·v
	//	p = p − lr·(m / b1c) / (eps + √(v / b2c))
loop:
	CMPQ    BX, CX
	JGE     done
	VMOVUPD (SI)(BX*1), Y0
	VMULPD  Y0, Y7, Y0
	VMOVUPD (R8)(BX*1), Y1
	VMULPD  Y1, Y8, Y1
	VMULPD  Y0, Y9, Y2
	VADDPD  Y1, Y2, Y1
	VMOVUPD Y1, (R8)(BX*1)
	VMOVUPD (R9)(BX*1), Y3
	VMULPD  Y3, Y10, Y3
	VMULPD  Y0, Y11, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y3, Y4, Y3
	VMOVUPD Y3, (R9)(BX*1)
	VDIVPD  Y13, Y1, Y2
	VMULPD  Y2, Y12, Y2
	VDIVPD  Y14, Y3, Y4
	VSQRTPD Y4, Y4
	VADDPD  Y4, Y15, Y4
	VDIVPD  Y4, Y2, Y2
	VMOVUPD (DI)(BX*1), Y0
	VSUBPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     loop

done:
	VZEROUPPER
	RET
