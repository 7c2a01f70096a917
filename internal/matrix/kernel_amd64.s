//go:build amd64

#include "textflag.h"

// kernavx2 is the AVX2+FMA micro-kernel: a 6×8 tile of C accumulated
// over kc steps of A and B given by their strides (DESIGN.md §15
// documents the ABI).
//
//	C[i][j] += Σ_p a[i*rsa + p*csa] · b[p*rsb + j]   for i in 0..5, j in 0..7
//
// One kernel serves both layouts: packed micro-panels are strides
// (rsa, csa, rsb) = (1, 6, 8), a row-major block is (lda, 1, ldb).
//
// Register plan (16 YMM registers, all live):
//
//	Y0..Y11  twelve accumulators — row i of the tile is Y(2i) (columns
//	         0..3) and Y(2i+1) (columns 4..7)
//	Y12,Y13  the current 8-wide B row, loaded once per k step
//	Y14,Y15  broadcast A values, double-buffered so the next broadcast
//	         issues while two FMAs still read the previous one
//
// The six A rows are (SI), (SI)(R8*1), (SI)(R8*2), (SI)(R9*1),
// (SI)(R8*4) and (SI)(R10*1), with R8 = rsa, R9 = 3·rsa and R10 = 5·rsa
// in bytes; SI steps by csa and BX by rsb.
//
// Per k step: 2 vector loads + 6 broadcasts + 12 FMAs. The 12
// independent accumulators cover the FMA latency×throughput product
// (4-5 cycles × 2/cycle) so the loop sustains ~2 FMAs/cycle; the k loop
// is unrolled ×2 to halve loop overhead and starts on a 64-byte
// boundary, so its timing does not depend on where the linker places
// the function.
//
// func kernavx2(kc int64, a *float64, rsa, csa int64, b *float64, rsb int64, c *float64, ldc int64)
TEXT ·kernavx2(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ rsa+16(FP), R8
	MOVQ csa+24(FP), R11
	MOVQ b+32(FP), BX
	MOVQ rsb+40(FP), R12
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), DX
	SHLQ $3, R8            // strides in bytes
	SHLQ $3, R11
	SHLQ $3, R12
	SHLQ $3, DX
	LEAQ (R8)(R8*2), R9    // 3·rsa
	LEAQ (R8)(R8*4), R10   // 5·rsa

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	MOVQ CX, AX
	SHRQ $1, AX
	JZ   tail

	PCALIGN $64

loop2:
	// k step 0
	VMOVUPD      (BX), Y12
	VMOVUPD      32(BX), Y13
	VBROADCASTSD (SI), Y14
	VBROADCASTSD (SI)(R8*1), Y15
	VFMADD231PD  Y12, Y14, Y0
	VFMADD231PD  Y13, Y14, Y1
	VFMADD231PD  Y12, Y15, Y2
	VFMADD231PD  Y13, Y15, Y3
	VBROADCASTSD (SI)(R8*2), Y14
	VBROADCASTSD (SI)(R9*1), Y15
	VFMADD231PD  Y12, Y14, Y4
	VFMADD231PD  Y13, Y14, Y5
	VFMADD231PD  Y12, Y15, Y6
	VFMADD231PD  Y13, Y15, Y7
	VBROADCASTSD (SI)(R8*4), Y14
	VBROADCASTSD (SI)(R10*1), Y15
	VFMADD231PD  Y12, Y14, Y8
	VFMADD231PD  Y13, Y14, Y9
	VFMADD231PD  Y12, Y15, Y10
	VFMADD231PD  Y13, Y15, Y11
	ADDQ         R11, SI

	// k step 1
	VMOVUPD      (BX)(R12*1), Y12
	VMOVUPD      32(BX)(R12*1), Y13
	VBROADCASTSD (SI), Y14
	VBROADCASTSD (SI)(R8*1), Y15
	VFMADD231PD  Y12, Y14, Y0
	VFMADD231PD  Y13, Y14, Y1
	VFMADD231PD  Y12, Y15, Y2
	VFMADD231PD  Y13, Y15, Y3
	VBROADCASTSD (SI)(R8*2), Y14
	VBROADCASTSD (SI)(R9*1), Y15
	VFMADD231PD  Y12, Y14, Y4
	VFMADD231PD  Y13, Y14, Y5
	VFMADD231PD  Y12, Y15, Y6
	VFMADD231PD  Y13, Y15, Y7
	VBROADCASTSD (SI)(R8*4), Y14
	VBROADCASTSD (SI)(R10*1), Y15
	VFMADD231PD  Y12, Y14, Y8
	VFMADD231PD  Y13, Y14, Y9
	VFMADD231PD  Y12, Y15, Y10
	VFMADD231PD  Y13, Y15, Y11
	ADDQ         R11, SI

	LEAQ (BX)(R12*2), BX
	DECQ AX
	JNE  loop2

tail:
	TESTQ $1, CX
	JZ    store

	VMOVUPD      (BX), Y12
	VMOVUPD      32(BX), Y13
	VBROADCASTSD (SI), Y14
	VBROADCASTSD (SI)(R8*1), Y15
	VFMADD231PD  Y12, Y14, Y0
	VFMADD231PD  Y13, Y14, Y1
	VFMADD231PD  Y12, Y15, Y2
	VFMADD231PD  Y13, Y15, Y3
	VBROADCASTSD (SI)(R8*2), Y14
	VBROADCASTSD (SI)(R9*1), Y15
	VFMADD231PD  Y12, Y14, Y4
	VFMADD231PD  Y13, Y14, Y5
	VFMADD231PD  Y12, Y15, Y6
	VFMADD231PD  Y13, Y15, Y7
	VBROADCASTSD (SI)(R8*4), Y14
	VBROADCASTSD (SI)(R10*1), Y15
	VFMADD231PD  Y12, Y14, Y8
	VFMADD231PD  Y13, Y14, Y9
	VFMADD231PD  Y12, Y15, Y10
	VFMADD231PD  Y13, Y15, Y11

store:
	// C += accumulators, row by row (rows are ldc bytes apart).
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	VADDPD  32(DI), Y3, Y3
	VMOVUPD Y3, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y4, Y4
	VMOVUPD Y4, (DI)
	VADDPD  32(DI), Y5, Y5
	VMOVUPD Y5, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y6, Y6
	VMOVUPD Y6, (DI)
	VADDPD  32(DI), Y7, Y7
	VMOVUPD Y7, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y8, Y8
	VMOVUPD Y8, (DI)
	VADDPD  32(DI), Y9, Y9
	VMOVUPD Y9, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y10, Y10
	VMOVUPD Y10, (DI)
	VADDPD  32(DI), Y11, Y11
	VMOVUPD Y11, 32(DI)

	VZEROUPPER
	RET
