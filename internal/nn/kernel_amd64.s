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

// func deltaRows(y, d, w []float64, live []int32, act []float64)
//
// Phase 1's pass over one layer, four inputs to a vector: for the first
// len(y)&^3 inputs i, y[i] = d[j]·w[j*len(y)+i] summed over the units j of
// live, in order, from +0, then set to +0 where act[i] <= 0. Eight ymm
// accumulators hold 32 inputs at a time while every live unit's weights
// stream past, then one holds four; each product is rounded, then added, as
// axpy4Rows does for one input.
TEXT ·deltaRows(SB), NOSPLIT, $0-120
	MOVQ act_base+96(FP), AX
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), R9
	MOVQ d_base+24(FP), DX
	MOVQ w_base+48(FP), SI
	MOVQ live_base+72(FP), BX
	MOVQ live_len+80(FP), CX
	MOVQ R9, R10
	SHLQ $3, R10 // bytes per weight row
	XORQ R11, R11 // byte offset of the inputs in hand
	MOVQ R9, R12
	ANDQ $-32, R12
	SHLQ $3, R12 // bytes the 32-input groups cover

wide:
	CMPQ   R11, R12
	JGE    narrowStart
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   BX, R13
	MOVQ   CX, R14
	TESTQ  R14, R14
	JZ     wideStore

wideLoop:
	MOVL         (R13), R8
	VBROADCASTSD (DX)(R8*8), Y8
	IMULQ        R10, R8
	ADDQ         SI, R8
	ADDQ         R11, R8
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
	ADDQ         $4, R13
	DECQ         R14
	JNZ          wideLoop

wideStore:
	// A lane keeps its sum where act > 0 (or unordered) and takes +0 where
	// act <= 0: the ReLU derivative.
	VXORPD  Y15, Y15, Y15
	LEAQ    (AX)(R11*1), R8
	VMOVUPD 0(R8), Y8
	VCMPPD  $6, Y15, Y8, Y8 // not less or equal
	VANDPD  Y8, Y0, Y0
	VMOVUPD 32(R8), Y9
	VCMPPD  $6, Y15, Y9, Y9
	VANDPD  Y9, Y1, Y1
	VMOVUPD 64(R8), Y10
	VCMPPD  $6, Y15, Y10, Y10
	VANDPD  Y10, Y2, Y2
	VMOVUPD 96(R8), Y11
	VCMPPD  $6, Y15, Y11, Y11
	VANDPD  Y11, Y3, Y3
	VMOVUPD 128(R8), Y12
	VCMPPD  $6, Y15, Y12, Y12
	VANDPD  Y12, Y4, Y4
	VMOVUPD 160(R8), Y13
	VCMPPD  $6, Y15, Y13, Y13
	VANDPD  Y13, Y5, Y5
	VMOVUPD 192(R8), Y14
	VCMPPD  $6, Y15, Y14, Y14
	VANDPD  Y14, Y6, Y6
	VMOVUPD 224(R8), Y8
	VCMPPD  $6, Y15, Y8, Y8
	VANDPD  Y8, Y7, Y7
	LEAQ    (DI)(R11*1), R8
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	VMOVUPD Y4, 128(R8)
	VMOVUPD Y5, 160(R8)
	VMOVUPD Y6, 192(R8)
	VMOVUPD Y7, 224(R8)
	ADDQ    $256, R11
	JMP     wide

narrowStart:
	MOVQ R9, R12
	ANDQ $-4, R12
	SHLQ $3, R12 // bytes the 4-input groups cover

narrow:
	CMPQ   R11, R12
	JGE    done
	VXORPD Y0, Y0, Y0
	MOVQ   BX, R13
	MOVQ   CX, R14
	TESTQ  R14, R14
	JZ     narrowStore

narrowLoop:
	MOVL         (R13), R8
	VBROADCASTSD (DX)(R8*8), Y8
	IMULQ        R10, R8
	ADDQ         SI, R8
	VMULPD       (R8)(R11*1), Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         $4, R13
	DECQ         R14
	JNZ          narrowLoop

narrowStore:
	VXORPD  Y15, Y15, Y15
	VMOVUPD (AX)(R11*1), Y8
	VCMPPD  $6, Y15, Y8, Y8
	VANDPD  Y8, Y0, Y0
	VMOVUPD Y0, (DI)(R11*1)
	ADDQ    $32, R11
	JMP     narrow

done:
	VZEROUPPER
	RET

// func outer32(p []float64, d *[32]float64, x []float64, idx []int32, i0 int, bias *[32]float64) bool
//
// Phase 2's step for one row and one block of 32 units: the row's 32 deltas
// sit in eight ymm registers, and for each input index i of idx, in order,
// x[i] is broadcast and d·x[i] added to the 32 sums of input i, which start
// at byte (i-i0)*256 of p. bias, when not nil, takes d itself. Each product
// is rounded, then added. A row whose 32 deltas are all zero (of either sign)
// adds nothing; outer32 reports whether the row had a non-zero.
TEXT ·outer32(SB), NOSPLIT, $0-97
	MOVQ    d+24(FP), AX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7
	VXORPD  Y15, Y15, Y15
	VCMPPD  $4, Y15, Y0, Y8 // not equal, or unordered
	VCMPPD  $4, Y15, Y1, Y9
	VORPD   Y9, Y8, Y8
	VCMPPD  $4, Y15, Y2, Y9
	VORPD   Y9, Y8, Y8
	VCMPPD  $4, Y15, Y3, Y9
	VORPD   Y9, Y8, Y8
	VCMPPD  $4, Y15, Y4, Y9
	VORPD   Y9, Y8, Y8
	VCMPPD  $4, Y15, Y5, Y9
	VORPD   Y9, Y8, Y8
	VCMPPD  $4, Y15, Y6, Y9
	VORPD   Y9, Y8, Y8
	VCMPPD  $4, Y15, Y7, Y9
	VORPD   Y9, Y8, Y8
	VPTEST  Y8, Y8
	JZ      zero

	MOVQ    bias+88(FP), AX
	TESTQ   AX, AX
	JZ      rows
	VADDPD  0(AX), Y0, Y9
	VMOVUPD Y9, 0(AX)
	VADDPD  32(AX), Y1, Y9
	VMOVUPD Y9, 32(AX)
	VADDPD  64(AX), Y2, Y9
	VMOVUPD Y9, 64(AX)
	VADDPD  96(AX), Y3, Y9
	VMOVUPD Y9, 96(AX)
	VADDPD  128(AX), Y4, Y9
	VMOVUPD Y9, 128(AX)
	VADDPD  160(AX), Y5, Y9
	VMOVUPD Y9, 160(AX)
	VADDPD  192(AX), Y6, Y9
	VMOVUPD Y9, 192(AX)
	VADDPD  224(AX), Y7, Y9
	VMOVUPD Y9, 224(AX)

rows:
	MOVQ  p_base+0(FP), SI
	MOVQ  x_base+32(FP), DX
	MOVQ  idx_base+56(FP), BX
	MOVQ  idx_len+64(FP), CX
	MOVQ  i0+80(FP), R9
	TESTQ CX, CX
	JZ    hit

loop:
	MOVL         (BX), R8
	VBROADCASTSD (DX)(R8*8), Y8
	SUBQ         R9, R8
	SHLQ         $8, R8
	ADDQ         SI, R8
	VMULPD       Y0, Y8, Y9
	VADDPD       0(R8), Y9, Y9
	VMOVUPD      Y9, 0(R8)
	VMULPD       Y1, Y8, Y10
	VADDPD       32(R8), Y10, Y10
	VMOVUPD      Y10, 32(R8)
	VMULPD       Y2, Y8, Y11
	VADDPD       64(R8), Y11, Y11
	VMOVUPD      Y11, 64(R8)
	VMULPD       Y3, Y8, Y12
	VADDPD       96(R8), Y12, Y12
	VMOVUPD      Y12, 96(R8)
	VMULPD       Y4, Y8, Y13
	VADDPD       128(R8), Y13, Y13
	VMOVUPD      Y13, 128(R8)
	VMULPD       Y5, Y8, Y14
	VADDPD       160(R8), Y14, Y14
	VMOVUPD      Y14, 160(R8)
	VMULPD       Y6, Y8, Y15
	VADDPD       192(R8), Y15, Y15
	VMOVUPD      Y15, 192(R8)
	VMULPD       Y7, Y8, Y9
	VADDPD       224(R8), Y9, Y9
	VMOVUPD      Y9, 224(R8)
	ADDQ         $4, BX
	DECQ         CX
	JNZ          loop

hit:
	MOVB $1, ret+96(FP)
	VZEROUPPER
	RET

zero:
	MOVB $0, ret+96(FP)
	VZEROUPPER
	RET

// func addClear(dst, src []float64)
//
// dst[i] += src[i], then src[i] = +0, for the first len(src)&^15 values.
TEXT ·addClear(SB), NOSPLIT, $0-48
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), CX
	SHRQ   $4, CX
	JZ     addDone
	VXORPD Y15, Y15, Y15

addLoop:
	VMOVUPD 0(SI), Y0
	VADDPD  0(DI), Y0, Y0
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y15, 0(SI)
	VMOVUPD 32(SI), Y1
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y15, 32(SI)
	VMOVUPD 64(SI), Y2
	VADDPD  64(DI), Y2, Y2
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y15, 64(SI)
	VMOVUPD 96(SI), Y3
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y15, 96(SI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     addLoop

addDone:
	VZEROUPPER
	RET

// func addClearRows(dst, src []float64, idx []int32, i0 int)
//
// For each index i of idx, the 32 values at byte (i-i0)*256 of src are added
// to those of dst and set to +0.
TEXT ·addClearRows(SB), NOSPLIT, $0-80
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	MOVQ   idx_base+48(FP), BX
	MOVQ   idx_len+56(FP), CX
	MOVQ   i0+72(FP), R9
	TESTQ  CX, CX
	JZ     rowsDone
	VXORPD Y15, Y15, Y15

rowsLoop:
	MOVL    (BX), R8
	SUBQ    R9, R8
	SHLQ    $8, R8
	LEAQ    (SI)(R8*1), R10
	LEAQ    (DI)(R8*1), R11
	VMOVUPD 0(R10), Y0
	VADDPD  0(R11), Y0, Y0
	VMOVUPD Y0, 0(R11)
	VMOVUPD Y15, 0(R10)
	VMOVUPD 32(R10), Y1
	VADDPD  32(R11), Y1, Y1
	VMOVUPD Y1, 32(R11)
	VMOVUPD Y15, 32(R10)
	VMOVUPD 64(R10), Y2
	VADDPD  64(R11), Y2, Y2
	VMOVUPD Y2, 64(R11)
	VMOVUPD Y15, 64(R10)
	VMOVUPD 96(R10), Y3
	VADDPD  96(R11), Y3, Y3
	VMOVUPD Y3, 96(R11)
	VMOVUPD Y15, 96(R10)
	VMOVUPD 128(R10), Y4
	VADDPD  128(R11), Y4, Y4
	VMOVUPD Y4, 128(R11)
	VMOVUPD Y15, 128(R10)
	VMOVUPD 160(R10), Y5
	VADDPD  160(R11), Y5, Y5
	VMOVUPD Y5, 160(R11)
	VMOVUPD Y15, 160(R10)
	VMOVUPD 192(R10), Y6
	VADDPD  192(R11), Y6, Y6
	VMOVUPD Y6, 192(R11)
	VMOVUPD Y15, 192(R10)
	VMOVUPD 224(R10), Y7
	VADDPD  224(R11), Y7, Y7
	VMOVUPD Y7, 224(R11)
	VMOVUPD Y15, 224(R10)
	ADDQ    $4, BX
	DECQ    CX
	JNZ     rowsLoop

rowsDone:
	VZEROUPPER
	RET

// func transpose4(dst []float64, dstStride int, src []float64, srcStride int, rows, cols int)
//
// dst[c*dstStride+r] = src[r*srcStride+c] for r < rows and c < cols, both
// multiples of four, one 4x4 tile at a time: four rows loaded, interleaved in
// pairs, their 128-bit halves exchanged, four columns stored.
TEXT ·transpose4(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dstStride+24(FP), R8
	MOVQ src_base+32(FP), SI
	MOVQ srcStride+56(FP), R9
	MOVQ rows+64(FP), R10
	MOVQ cols+72(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	XORQ AX, AX // r

tRows:
	CMPQ AX, R10
	JGE  tDone
	XORQ BX, BX // c

tCols:
	CMPQ       BX, R11
	JGE        tNext
	MOVQ       AX, CX
	IMULQ      R9, CX
	ADDQ       SI, CX
	LEAQ       (CX)(BX*8), CX
	VMOVUPD    (CX), Y0
	ADDQ       R9, CX
	VMOVUPD    (CX), Y1
	ADDQ       R9, CX
	VMOVUPD    (CX), Y2
	ADDQ       R9, CX
	VMOVUPD    (CX), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	MOVQ       BX, DX
	IMULQ      R8, DX
	ADDQ       DI, DX
	LEAQ       (DX)(AX*8), DX
	VMOVUPD    Y0, (DX)
	ADDQ       R8, DX
	VMOVUPD    Y1, (DX)
	ADDQ       R8, DX
	VMOVUPD    Y2, (DX)
	ADDQ       R8, DX
	VMOVUPD    Y3, (DX)
	ADDQ       $4, BX
	JMP        tCols

tNext:
	ADDQ $4, AX
	JMP  tRows

tDone:
	VZEROUPPER
	RET

// func rmsprop(w, ms, g []float64, scale, rho, fresh, lr, eps float64)
//
// One RMSProp step over the first len(w)&^3 parameters, four to a vector,
// in Apply's order of operations: grad = g·scale; ms = rho·ms + (fresh·grad)·
// grad; w -= (lr·grad) / (sqrt(ms) + eps); g = +0. Every product, quotient
// and square root is rounded on its own, as SQRTSD and DIVSD round them.
TEXT ·rmsprop(SB), NOSPLIT, $0-112
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         ms_base+24(FP), SI
	MOVQ         g_base+48(FP), DX
	SHRQ         $2, CX
	JZ           rmsDone
	VBROADCASTSD scale+72(FP), Y10
	VBROADCASTSD rho+80(FP), Y11
	VBROADCASTSD fresh+88(FP), Y12
	VBROADCASTSD lr+96(FP), Y13
	VBROADCASTSD eps+104(FP), Y14
	VXORPD       Y15, Y15, Y15

rmsLoop:
	VMULPD  0(DX), Y10, Y0
	VMULPD  0(SI), Y11, Y1
	VMULPD  Y0, Y12, Y2
	VMULPD  Y0, Y2, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, 0(SI)
	VSQRTPD Y1, Y3
	VADDPD  Y14, Y3, Y3
	VMULPD  Y0, Y13, Y4
	VDIVPD  Y3, Y4, Y4
	VMOVUPD 0(DI), Y5
	VSUBPD  Y4, Y5, Y5
	VMOVUPD Y5, 0(DI)
	VMOVUPD Y15, 0(DX)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     rmsLoop

rmsDone:
	VZEROUPPER
	RET

// nzLanes holds, for each 4-bit mask, the positions of its set bits in
// ascending order, as four int32 padded with 0; nzCount holds how many bits
// it sets.
DATA nzLanes<>+0(SB)/4, $0
DATA nzLanes<>+4(SB)/4, $0
DATA nzLanes<>+8(SB)/4, $0
DATA nzLanes<>+12(SB)/4, $0
DATA nzLanes<>+16(SB)/4, $0
DATA nzLanes<>+20(SB)/4, $0
DATA nzLanes<>+24(SB)/4, $0
DATA nzLanes<>+28(SB)/4, $0
DATA nzLanes<>+32(SB)/4, $1
DATA nzLanes<>+36(SB)/4, $0
DATA nzLanes<>+40(SB)/4, $0
DATA nzLanes<>+44(SB)/4, $0
DATA nzLanes<>+48(SB)/4, $0
DATA nzLanes<>+52(SB)/4, $1
DATA nzLanes<>+56(SB)/4, $0
DATA nzLanes<>+60(SB)/4, $0
DATA nzLanes<>+64(SB)/4, $2
DATA nzLanes<>+68(SB)/4, $0
DATA nzLanes<>+72(SB)/4, $0
DATA nzLanes<>+76(SB)/4, $0
DATA nzLanes<>+80(SB)/4, $0
DATA nzLanes<>+84(SB)/4, $2
DATA nzLanes<>+88(SB)/4, $0
DATA nzLanes<>+92(SB)/4, $0
DATA nzLanes<>+96(SB)/4, $1
DATA nzLanes<>+100(SB)/4, $2
DATA nzLanes<>+104(SB)/4, $0
DATA nzLanes<>+108(SB)/4, $0
DATA nzLanes<>+112(SB)/4, $0
DATA nzLanes<>+116(SB)/4, $1
DATA nzLanes<>+120(SB)/4, $2
DATA nzLanes<>+124(SB)/4, $0
DATA nzLanes<>+128(SB)/4, $3
DATA nzLanes<>+132(SB)/4, $0
DATA nzLanes<>+136(SB)/4, $0
DATA nzLanes<>+140(SB)/4, $0
DATA nzLanes<>+144(SB)/4, $0
DATA nzLanes<>+148(SB)/4, $3
DATA nzLanes<>+152(SB)/4, $0
DATA nzLanes<>+156(SB)/4, $0
DATA nzLanes<>+160(SB)/4, $1
DATA nzLanes<>+164(SB)/4, $3
DATA nzLanes<>+168(SB)/4, $0
DATA nzLanes<>+172(SB)/4, $0
DATA nzLanes<>+176(SB)/4, $0
DATA nzLanes<>+180(SB)/4, $1
DATA nzLanes<>+184(SB)/4, $3
DATA nzLanes<>+188(SB)/4, $0
DATA nzLanes<>+192(SB)/4, $2
DATA nzLanes<>+196(SB)/4, $3
DATA nzLanes<>+200(SB)/4, $0
DATA nzLanes<>+204(SB)/4, $0
DATA nzLanes<>+208(SB)/4, $0
DATA nzLanes<>+212(SB)/4, $2
DATA nzLanes<>+216(SB)/4, $3
DATA nzLanes<>+220(SB)/4, $0
DATA nzLanes<>+224(SB)/4, $1
DATA nzLanes<>+228(SB)/4, $2
DATA nzLanes<>+232(SB)/4, $3
DATA nzLanes<>+236(SB)/4, $0
DATA nzLanes<>+240(SB)/4, $0
DATA nzLanes<>+244(SB)/4, $1
DATA nzLanes<>+248(SB)/4, $2
DATA nzLanes<>+252(SB)/4, $3
GLOBL nzLanes<>(SB), RODATA|NOPTR, $256

DATA nzCount<>+0(SB)/1, $0
DATA nzCount<>+1(SB)/1, $1
DATA nzCount<>+2(SB)/1, $1
DATA nzCount<>+3(SB)/1, $2
DATA nzCount<>+4(SB)/1, $1
DATA nzCount<>+5(SB)/1, $2
DATA nzCount<>+6(SB)/1, $2
DATA nzCount<>+7(SB)/1, $3
DATA nzCount<>+8(SB)/1, $1
DATA nzCount<>+9(SB)/1, $2
DATA nzCount<>+10(SB)/1, $2
DATA nzCount<>+11(SB)/1, $3
DATA nzCount<>+12(SB)/1, $2
DATA nzCount<>+13(SB)/1, $3
DATA nzCount<>+14(SB)/1, $3
DATA nzCount<>+15(SB)/1, $4
GLOBL nzCount<>(SB), RODATA|NOPTR, $16

// func nonZeros4(d []float64, buf []int32) int
//
// For each group of four values of d, the lanes that are not zero (of either
// sign; NaN is not zero) make a 4-bit mask; its nzLanes entry plus the
// group's first index is stored at buf[k:k+4] and k advances by its nzCount.
// A store writes past the kept indices only into slots of buf the next
// groups overwrite or that lie past the count returned.
TEXT ·nonZeros4(SB), NOSPLIT, $0-56
	MOVQ    d_base+0(FP), SI
	MOVQ    d_len+8(FP), CX
	MOVQ    buf_base+24(FP), DI
	XORQ    DX, DX // indices kept
	SHRQ    $2, CX
	JZ      nzDone
	VXORPD  Y15, Y15, Y15
	VPXOR   X2, X2, X2 // the group's first index, in every lane
	MOVL    $4, AX
	VMOVD   AX, X3
	VPSHUFD $0, X3, X3 // 4 in every lane
	LEAQ    nzLanes<>(SB), R8
	LEAQ    nzCount<>(SB), R9

nzLoop:
	VMOVUPD   (SI), Y0
	VCMPPD    $4, Y15, Y0, Y0 // not equal, or unordered
	VMOVMSKPD Y0, AX
	MOVQ      AX, BX
	SHLQ      $4, BX
	VPADDD    (R8)(BX*1), X2, X1
	VMOVDQU   X1, (DI)(DX*4)
	MOVBQZX   (R9)(AX*1), AX
	ADDQ      AX, DX
	VPADDD    X3, X2, X2
	ADDQ      $32, SI
	DECQ      CX
	JNZ       nzLoop

nzDone:
	MOVQ DX, ret+48(FP)
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
