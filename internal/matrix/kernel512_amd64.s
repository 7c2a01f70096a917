//go:build amd64

#include "textflag.h"

// kernavx512 is the AVX-512F micro-kernel: an 8×16 tile of C
// accumulated over kc steps of A and B given by their strides, with the
// same ABI as kernavx2 (DESIGN.md §15).
//
//	C[i][j] += Σ_p a[i*rsa + p*csa] · b[p*rsb + j]   for i in 0..7, j in 0..15
//
// Packed micro-panels are strides (rsa, csa, rsb) = (1, 8, 16), a
// row-major block is (lda, 1, ldb).
//
// Register plan (32 ZMM registers, 26 live):
//
//	Z0..Z15   sixteen accumulators — row i of the tile is Z(2i)
//	          (columns 0..7) and Z(2i+1) (columns 8..15)
//	Z16,Z17   the current 16-wide B row, loaded once per k step
//	Z18..Z25  the eight broadcast A values of the k step, one register
//	          per row, so no broadcast waits on an FMA reading another
//
// The eight A rows are (SI), (SI)(R8*1), (SI)(R8*2), (SI)(R9*1),
// (SI)(R8*4), (SI)(R10*1), (SI)(R9*2) and (SI)(R13*1), with R8 = rsa,
// R9 = 3·rsa, R10 = 5·rsa and R13 = 7·rsa in bytes; SI steps by csa and
// BX by rsb.
//
// Per k step: 2 vector loads + 8 broadcasts + 16 FMAs. Sixteen
// independent accumulators cover the FMA latency×throughput product
// (4 cycles × 2/cycle), so no FMA waits on the previous one of its
// chain. The loop is not unrolled: 4 scalar instructions per 26 vector
// ones leave the FMA ports, not the front end, the bound. The k loop
// starts on a 64-byte boundary, so its timing does not depend on where
// the linker places the function.
//
// func kernavx512(kc int64, a *float64, rsa, csa int64, b *float64, rsb int64, c *float64, ldc int64)
TEXT ·kernavx512(SB), NOSPLIT, $0-64
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
	LEAQ (R10)(R8*2), R13  // 7·rsa

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

	PCALIGN $64

loop:
	VMOVUPD      (BX), Z16
	VMOVUPD      64(BX), Z17
	VBROADCASTSD (SI), Z18
	VBROADCASTSD (SI)(R8*1), Z19
	VBROADCASTSD (SI)(R8*2), Z20
	VBROADCASTSD (SI)(R9*1), Z21
	VFMADD231PD  Z16, Z18, Z0
	VFMADD231PD  Z17, Z18, Z1
	VFMADD231PD  Z16, Z19, Z2
	VFMADD231PD  Z17, Z19, Z3
	VFMADD231PD  Z16, Z20, Z4
	VFMADD231PD  Z17, Z20, Z5
	VFMADD231PD  Z16, Z21, Z6
	VFMADD231PD  Z17, Z21, Z7
	VBROADCASTSD (SI)(R8*4), Z22
	VBROADCASTSD (SI)(R10*1), Z23
	VBROADCASTSD (SI)(R9*2), Z24
	VBROADCASTSD (SI)(R13*1), Z25
	VFMADD231PD  Z16, Z22, Z8
	VFMADD231PD  Z17, Z22, Z9
	VFMADD231PD  Z16, Z23, Z10
	VFMADD231PD  Z17, Z23, Z11
	VFMADD231PD  Z16, Z24, Z12
	VFMADD231PD  Z17, Z24, Z13
	VFMADD231PD  Z16, Z25, Z14
	VFMADD231PD  Z17, Z25, Z15
	ADDQ         R11, SI
	ADDQ         R12, BX
	DECQ         CX
	JNE          loop

	// C += accumulators, row by row (rows are ldc bytes apart).
	VADDPD  (DI), Z0, Z0
	VMOVUPD Z0, (DI)
	VADDPD  64(DI), Z1, Z1
	VMOVUPD Z1, 64(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Z2, Z2
	VMOVUPD Z2, (DI)
	VADDPD  64(DI), Z3, Z3
	VMOVUPD Z3, 64(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Z4, Z4
	VMOVUPD Z4, (DI)
	VADDPD  64(DI), Z5, Z5
	VMOVUPD Z5, 64(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Z6, Z6
	VMOVUPD Z6, (DI)
	VADDPD  64(DI), Z7, Z7
	VMOVUPD Z7, 64(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Z8, Z8
	VMOVUPD Z8, (DI)
	VADDPD  64(DI), Z9, Z9
	VMOVUPD Z9, 64(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Z10, Z10
	VMOVUPD Z10, (DI)
	VADDPD  64(DI), Z11, Z11
	VMOVUPD Z11, 64(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Z12, Z12
	VMOVUPD Z12, (DI)
	VADDPD  64(DI), Z13, Z13
	VMOVUPD Z13, 64(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Z14, Z14
	VMOVUPD Z14, (DI)
	VADDPD  64(DI), Z15, Z15
	VMOVUPD Z15, 64(DI)

	VZEROUPPER
	RET
