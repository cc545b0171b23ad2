//go:build amd64 && !purego

#include "textflag.h"

// func dot32(w []float64, bias *[32]float64, x []float64, idx []int32, out *[32]float64)
//
// Eight ymm accumulators hold the 32 units of one block, four lanes each,
// and start at the biases. For each input index i of idx, in order, x[i] is
// broadcast and multiplied with the block's 32 weights of input i, which
// start at byte i*256 of w; each product is rounded, then added to its
// unit's sum. No fused multiply-add: that would round once where dot4
// rounds twice.
TEXT ·dot32(SB), NOSPLIT, $0-88
	MOVQ w_base+0(FP), SI
	MOVQ bias+24(FP), AX
	MOVQ x_base+32(FP), DX
	MOVQ idx_base+56(FP), BX
	MOVQ idx_len+64(FP), CX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7
	TESTQ CX, CX
	JZ    done

loop:
	MOVL         (BX), R8
	VBROADCASTSD (DX)(R8*8), Y8
	SHLQ         $8, R8
	ADDQ         SI, R8
	VMULPD       0(R8), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R8), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R8), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R8), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(R8), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(R8), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(R8), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       224(R8), Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         $4, BX
	DECQ         CX
	JNZ          loop

done:
	MOVQ    out+80(FP), AX
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xcr0() uint32
//
// The low half of extended control register 0: which register states the
// operating system saves. Callers check CPUID's OSXSAVE bit first.
TEXT ·xcr0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
