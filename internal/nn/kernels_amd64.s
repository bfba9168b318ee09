#include "textflag.h"

// Four-lane AVX versions of the training step's elementwise loops. Every
// lane performs the IEEE-754 operations of the Go statement it replaces, in
// the same order, each rounded once: VMULPD, VADDPD, VSUBPD, VDIVPD and
// VSQRTPD only, never a fused multiply-add, so results are bit-identical to
// the portable loops (lanes.go, matrix.go). Elements that do not fill a
// lane group go through the scalar VEX forms of the same operations.
//
// In Go assembly the operand order is reversed from Intel's: for
// "VADDPD Y5, Y4, Y4" the destination is Y4 = Y4 + Y5.

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func addRowsAVX(dr, src, v []float64, k []int)
//
// For m ascending: dr += v[m] · src[k[m]*n : k[m]*n+n], n = len(dr). Rows
// go four at a time as dr[j] + a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j],
// evaluated left to right; a remainder of two and then of one row the same
// way. Each element of dr receives the same rounded additions in the same
// order as one pass per row would give it.
//
// Registers: DI dr, CX n, R11 n rounded down to a multiple of 4, SI src,
// R8 → v[m], R9 → k[m], R10 rows left, AX BX DX R12 the rows' bases,
// R13 j, Y0-Y3 the broadcast multipliers.
TEXT ·addRowsAVX(SB), NOSPLIT, $0-96
	MOVQ dr_base+0(FP), DI
	MOVQ dr_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ v_base+48(FP), R8
	MOVQ v_len+56(FP), R10
	MOVQ k_base+72(FP), R9
	MOVQ CX, R11
	ANDQ $-4, R11

four:
	CMPQ R10, $4
	JLT  two
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VBROADCASTSD 24(R8), Y3
	MOVQ  0(R9), AX
	IMULQ CX, AX
	LEAQ  (SI)(AX*8), AX
	MOVQ  8(R9), BX
	IMULQ CX, BX
	LEAQ  (SI)(BX*8), BX
	MOVQ  16(R9), DX
	IMULQ CX, DX
	LEAQ  (SI)(DX*8), DX
	MOVQ  24(R9), R12
	IMULQ CX, R12
	LEAQ  (SI)(R12*8), R12
	XORQ  R13, R13
	JMP   fourLanesCheck

fourLanes:
	VMOVUPD (DI)(R13*8), Y4
	VMULPD  (AX)(R13*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (BX)(R13*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (DX)(R13*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R12)(R13*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(R13*8)
	ADDQ    $4, R13

fourLanesCheck:
	CMPQ R13, R11
	JLT  fourLanes
	JMP  fourTailCheck

fourTail:
	VMOVSD (DI)(R13*8), X4
	VMULSD (AX)(R13*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (BX)(R13*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (DX)(R13*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R12)(R13*8), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(R13*8)
	INCQ   R13

fourTailCheck:
	CMPQ R13, CX
	JLT  fourTail
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, R10
	JMP  four

two:
	CMPQ R10, $2
	JLT  one
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	MOVQ  0(R9), AX
	IMULQ CX, AX
	LEAQ  (SI)(AX*8), AX
	MOVQ  8(R9), BX
	IMULQ CX, BX
	LEAQ  (SI)(BX*8), BX
	XORQ  R13, R13
	JMP   twoLanesCheck

twoLanes:
	VMOVUPD (DI)(R13*8), Y4
	VMULPD  (AX)(R13*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (BX)(R13*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(R13*8)
	ADDQ    $4, R13

twoLanesCheck:
	CMPQ R13, R11
	JLT  twoLanes
	JMP  twoTailCheck

twoTail:
	VMOVSD (DI)(R13*8), X4
	VMULSD (AX)(R13*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (BX)(R13*8), X1, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(R13*8)
	INCQ   R13

twoTailCheck:
	CMPQ R13, CX
	JLT  twoTail
	ADDQ $16, R8
	ADDQ $16, R9
	SUBQ $2, R10

one:
	CMPQ R10, $1
	JLT  done
	VBROADCASTSD 0(R8), Y0
	MOVQ  0(R9), AX
	IMULQ CX, AX
	LEAQ  (SI)(AX*8), AX
	XORQ  R13, R13
	JMP   oneLanesCheck

oneLanes:
	VMOVUPD (DI)(R13*8), Y4
	VMULPD  (AX)(R13*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(R13*8)
	ADDQ    $4, R13

oneLanesCheck:
	CMPQ R13, R11
	JLT  oneLanes
	JMP  oneTailCheck

oneTail:
	VMOVSD (DI)(R13*8), X4
	VMULSD (AX)(R13*8), X0, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(R13*8)
	INCQ   R13

oneTailCheck:
	CMPQ R13, CX
	JLT  oneTail

done:
	VZEROUPPER
	RET

// func adamAVX(param, grad, m, v []float64, c *adamConsts)
//
// Per element, as adamConsts.update's loop:
//
//	m = β1·m + (1−β1)·g
//	v = β2·v + ((1−β2)·g)·g
//	param = param − (lr·(m/c1)) / (sqrt(v/c2) + ε)
//
// Registers: DI param, SI grad, R8 m, R9 v, CX n, R11 n rounded down to a
// multiple of 4, AX i, Y8-Y15 the broadcast constants in adamConsts order.
TEXT ·adamAVX(SB), NOSPLIT, $0-104
	MOVQ param_base+0(FP), DI
	MOVQ param_len+8(FP), CX
	MOVQ grad_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ c+96(FP), AX
	VBROADCASTSD 0(AX), Y8   // β1
	VBROADCASTSD 8(AX), Y9   // 1 − β1
	VBROADCASTSD 16(AX), Y10 // β2
	VBROADCASTSD 24(AX), Y11 // 1 − β2
	VBROADCASTSD 32(AX), Y12 // c1
	VBROADCASTSD 40(AX), Y13 // c2
	VBROADCASTSD 48(AX), Y14 // lr
	VBROADCASTSD 56(AX), Y15 // ε
	MOVQ CX, R11
	ANDQ $-4, R11
	XORQ AX, AX
	JMP  adamLanesCheck

adamLanes:
	VMOVUPD (SI)(AX*8), Y0       // g
	VMULPD  (R8)(AX*8), Y8, Y1   // β1·m
	VMULPD  Y0, Y9, Y2           // (1−β1)·g
	VADDPD  Y2, Y1, Y1           // m
	VMOVUPD Y1, (R8)(AX*8)
	VMULPD  (R9)(AX*8), Y10, Y3  // β2·v
	VMULPD  Y0, Y11, Y4          // (1−β2)·g
	VMULPD  Y0, Y4, Y4           // ·g
	VADDPD  Y4, Y3, Y3           // v
	VMOVUPD Y3, (R9)(AX*8)
	VDIVPD  Y12, Y1, Y1          // m̂ = m/c1
	VDIVPD  Y13, Y3, Y3          // v̂ = v/c2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3          // sqrt(v̂) + ε
	VMULPD  Y1, Y14, Y1          // lr·m̂
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX

adamLanesCheck:
	CMPQ AX, R11
	JLT  adamLanes
	JMP  adamTailCheck

adamTail:
	VMOVSD  (SI)(AX*8), X0
	VMULSD  (R8)(AX*8), X8, X1
	VMULSD  X0, X9, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (R8)(AX*8)
	VMULSD  (R9)(AX*8), X10, X3
	VMULSD  X0, X11, X4
	VMULSD  X0, X4, X4
	VADDSD  X4, X3, X3
	VMOVSD  X3, (R9)(AX*8)
	VDIVSD  X12, X1, X1
	VDIVSD  X13, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X15, X3, X3
	VMULSD  X1, X14, X1
	VDIVSD  X3, X1, X1
	VMOVSD  (DI)(AX*8), X2
	VSUBSD  X1, X2, X2
	VMOVSD  X2, (DI)(AX*8)
	INCQ    AX

adamTailCheck:
	CMPQ AX, CX
	JLT  adamTail
	VZEROUPPER
	RET

// func softUpdateAVX(w, s []float64, keep, tau float64)
//
// Per element: w = keep·w + tau·s, keep = 1 − tau.
TEXT ·softUpdateAVX(SB), NOSPLIT, $0-64
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	VBROADCASTSD keep+48(FP), Y0
	VBROADCASTSD tau+56(FP), Y1
	MOVQ CX, R11
	ANDQ $-4, R11
	XORQ AX, AX
	JMP  softLanesCheck

softLanes:
	VMULPD  (DI)(AX*8), Y0, Y2
	VMULPD  (SI)(AX*8), Y1, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX

softLanesCheck:
	CMPQ AX, R11
	JLT  softLanes
	JMP  softTailCheck

softTail:
	VMULSD (DI)(AX*8), X0, X2
	VMULSD (SI)(AX*8), X1, X3
	VADDSD X3, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX

softTailCheck:
	CMPQ AX, CX
	JLT  softTail
	VZEROUPPER
	RET
