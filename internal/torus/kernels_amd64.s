#include "textflag.h"

// AVX2+FMA kernels of the half-complex negacyclic transform and the
// key-switch row subtraction. The Go declarations and the FFT stage loops
// are in kernels_amd64.go; the portable bodies they replace are the
// …Generic functions in half.go and torus.go.
//
// Operand order is Go's: sources first, destination last, so
// VSUBPD Y1, Y0, Y2 computes Y2 = Y0 - Y1 and VFMADD231PD Y1, Y0, Y2
// computes Y2 = Y0*Y1 + Y2. Every load and store is unaligned (VMOVUPD,
// VMOVDQU): Go aligns a []float64 only to 8 bytes.

// Low 32 bits of each 64-bit lane, gathered into the low 128 bits.
DATA packLow32<>+0(SB)/4, $0
DATA packLow32<>+4(SB)/4, $2
DATA packLow32<>+8(SB)/4, $4
DATA packLow32<>+12(SB)/4, $6
DATA packLow32<>+16(SB)/4, $0
DATA packLow32<>+20(SB)/4, $0
DATA packLow32<>+24(SB)/4, $0
DATA packLow32<>+28(SB)/4, $0
GLOBL packLow32<>(SB), RODATA|NOPTR, $32

// 1.5·2^52: for |x| < 2^51, x + 1.5·2^52 holds round(x) in its low
// mantissa bits, so its low 32 bits are round(x) mod 2^32.
DATA roundMagic<>+0(SB)/8, $0x4338000000000000
GLOBL roundMagic<>(SB), RODATA|NOPTR, $8

// Sign bit on the upper two lanes.
DATA negHigh<>+0(SB)/8, $0
DATA negHigh<>+8(SB)/8, $0
DATA negHigh<>+16(SB)/8, $0x8000000000000000
DATA negHigh<>+24(SB)/8, $0x8000000000000000
GLOBL negHigh<>(SB), RODATA|NOPTR, $32

// [1, -1, 1, -1]: X·pm1 + swap(X) is the size-2 butterfly on each lane
// pair of X.
DATA pm1<>+0(SB)/8, $1.0
DATA pm1<>+8(SB)/8, $-1.0
DATA pm1<>+16(SB)/8, $1.0
DATA pm1<>+24(SB)/8, $-1.0
GLOBL pm1<>(SB), RODATA|NOPTR, $32

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

// func halfFwdStageAVX2(re, im, wr, wi []float64)
//
// One forward radix-4 stage with quarter q = len(wr)/3 (q >= 4, a multiple
// of 4) over every block of s = 4q points; four butterflies j..j+3 per
// iteration. SI/DI walk x0 of the block (re/im), BX/R12/R13 are the byte
// offsets q, 2q, 3q of x1, x2, x3, and R10/R11 walk the planar twiddles
// w^j (+0), w^{2j} (+q) and w^{3j} (+2q).
TEXT ·halfFwdStageAVX2(SB), NOSPLIT, $0-96
	MOVQ wr_len+56(FP), AX
	XORQ DX, DX
	MOVQ $3, CX
	DIVQ CX
	MOVQ AX, BX
	SHLQ $3, BX
	LEAQ (BX)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	SHRQ $2, AX
	MOVQ re_base+0(FP), SI
	MOVQ im_base+24(FP), DI
	MOVQ re_len+8(FP), DX
	LEAQ (SI)(DX*8), DX

fwdBlock:
	MOVQ wr_base+48(FP), R10
	MOVQ wi_base+72(FP), R11
	MOVQ AX, CX

fwdLoop:
	VMOVUPD (SI), Y0
	VMOVUPD (DI), Y1
	VMOVUPD (SI)(BX*1), Y2
	VMOVUPD (DI)(BX*1), Y3
	VMOVUPD (SI)(R12*1), Y4
	VMOVUPD (DI)(R12*1), Y5
	VMOVUPD (SI)(R13*1), Y6
	VMOVUPD (DI)(R13*1), Y7
	VADDPD  Y4, Y0, Y8      // a = x0 + x2
	VSUBPD  Y4, Y0, Y0      // b = x0 - x2
	VADDPD  Y5, Y1, Y9
	VSUBPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y10     // c = x1 + x3
	VSUBPD  Y6, Y2, Y2      // d = x1 - x3
	VADDPD  Y7, Y3, Y11
	VSUBPD  Y7, Y3, Y3

	// y0 = a + c
	VADDPD  Y10, Y8, Y4
	VADDPD  Y11, Y9, Y5
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, (DI)

	// y2 = (a - c)·w^{2j}
	VSUBPD      Y10, Y8, Y8
	VSUBPD      Y11, Y9, Y9
	VMOVUPD     (R10)(BX*1), Y10
	VMOVUPD     (R11)(BX*1), Y11
	VMULPD      Y9, Y11, Y12
	VMULPD      Y9, Y10, Y13
	VFMSUB231PD Y10, Y8, Y12
	VFMADD231PD Y11, Y8, Y13
	VMOVUPD     Y12, (SI)(R12*1)
	VMOVUPD     Y13, (DI)(R12*1)

	// y1 = (b - i·d)·w^j, y3 = (b + i·d)·w^{3j}
	VADDPD      Y3, Y0, Y4
	VSUBPD      Y2, Y1, Y5
	VSUBPD      Y3, Y0, Y6
	VADDPD      Y2, Y1, Y7
	VMOVUPD     (R10), Y8
	VMOVUPD     (R11), Y9
	VMULPD      Y5, Y9, Y12
	VMULPD      Y5, Y8, Y13
	VFMSUB231PD Y8, Y4, Y12
	VFMADD231PD Y9, Y4, Y13
	VMOVUPD     Y12, (SI)(BX*1)
	VMOVUPD     Y13, (DI)(BX*1)
	VMOVUPD     (R10)(R12*1), Y8
	VMOVUPD     (R11)(R12*1), Y9
	VMULPD      Y7, Y9, Y12
	VMULPD      Y7, Y8, Y13
	VFMSUB231PD Y8, Y6, Y12
	VFMADD231PD Y9, Y6, Y13
	VMOVUPD     Y12, (SI)(R13*1)
	VMOVUPD     Y13, (DI)(R13*1)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ CX
	JNZ  fwdLoop

	ADDQ R13, SI
	ADDQ R13, DI
	CMPQ SI, DX
	JB   fwdBlock
	VZEROUPPER
	RET

// func halfInvStageAVX2(re, im, wr, wi []float64)
//
// The inverse of halfFwdStageAVX2 with the same register layout: z_r =
// y_r·conj(w^{rj}), then the radix-4 butterfly.
TEXT ·halfInvStageAVX2(SB), NOSPLIT, $0-96
	MOVQ wr_len+56(FP), AX
	XORQ DX, DX
	MOVQ $3, CX
	DIVQ CX
	MOVQ AX, BX
	SHLQ $3, BX
	LEAQ (BX)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	SHRQ $2, AX
	MOVQ re_base+0(FP), SI
	MOVQ im_base+24(FP), DI
	MOVQ re_len+8(FP), DX
	LEAQ (SI)(DX*8), DX

invBlock:
	MOVQ wr_base+48(FP), R10
	MOVQ wi_base+72(FP), R11
	MOVQ AX, CX

invLoop:
	// z1 = y1·conj(w^j)
	VMOVUPD     (R10), Y8
	VMOVUPD     (R11), Y9
	VMOVUPD     (SI)(BX*1), Y2
	VMOVUPD     (DI)(BX*1), Y3
	VMULPD      Y3, Y9, Y4
	VMULPD      Y2, Y9, Y5
	VFMADD231PD Y8, Y2, Y4
	VFMSUB231PD Y8, Y3, Y5

	// z2 = y2·conj(w^{2j})
	VMOVUPD     (R10)(BX*1), Y8
	VMOVUPD     (R11)(BX*1), Y9
	VMOVUPD     (SI)(R12*1), Y2
	VMOVUPD     (DI)(R12*1), Y3
	VMULPD      Y3, Y9, Y6
	VMULPD      Y2, Y9, Y7
	VFMADD231PD Y8, Y2, Y6
	VFMSUB231PD Y8, Y3, Y7

	// z3 = y3·conj(w^{3j})
	VMOVUPD     (R10)(R12*1), Y8
	VMOVUPD     (R11)(R12*1), Y9
	VMOVUPD     (SI)(R13*1), Y2
	VMOVUPD     (DI)(R13*1), Y3
	VMULPD      Y3, Y9, Y10
	VMULPD      Y2, Y9, Y11
	VFMADD231PD Y8, Y2, Y10
	VFMSUB231PD Y8, Y3, Y11

	VMOVUPD (SI), Y0
	VMOVUPD (DI), Y1
	VADDPD  Y6, Y0, Y8      // a = y0 + z2
	VSUBPD  Y6, Y0, Y0      // b = y0 - z2
	VADDPD  Y7, Y1, Y9
	VSUBPD  Y7, Y1, Y1
	VADDPD  Y10, Y4, Y2     // c = z1 + z3
	VADDPD  Y11, Y5, Y3
	VSUBPD  Y5, Y11, Y6     // d = i·(z1 - z3)
	VSUBPD  Y10, Y4, Y7

	VADDPD  Y2, Y8, Y4
	VADDPD  Y3, Y9, Y5
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, (DI)
	VSUBPD  Y2, Y8, Y4
	VSUBPD  Y3, Y9, Y5
	VMOVUPD Y4, (SI)(R12*1)
	VMOVUPD Y5, (DI)(R12*1)
	VADDPD  Y6, Y0, Y4
	VADDPD  Y7, Y1, Y5
	VMOVUPD Y4, (SI)(BX*1)
	VMOVUPD Y5, (DI)(BX*1)
	VSUBPD  Y6, Y0, Y4
	VSUBPD  Y7, Y1, Y5
	VMOVUPD Y4, (SI)(R13*1)
	VMOVUPD Y5, (DI)(R13*1)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ CX
	JNZ  invLoop

	ADDQ R13, SI
	ADDQ R13, DI
	CMPQ SI, DX
	JB   invBlock
	VZEROUPPER
	RET

// func halfFwdStage8AVX2(re, im []float64, tw *[16]float64)
//
// The s=8 stage and the radix-2 tail, one block of eight points per
// iteration. With A = x[0:4] = [x0, x1] and B = x[4:8] = [x2, x3] (two
// butterflies j = 0, 1 per half), A ± B = [a, c] and [b, d]; regrouped
// into E = [a, b] and F' = [c, -i·d], the outputs are
// [y0, y1] = (E + F')·[1, w^j] and [y2, y3] = (E - F')·[w^{2j}, w^{3j}].
TEXT ·halfFwdStage8AVX2(SB), NOSPLIT, $0-56
	MOVQ    re_base+0(FP), SI
	MOVQ    im_base+24(FP), DI
	MOVQ    re_len+8(FP), CX
	SHRQ    $3, CX
	MOVQ    tw+48(FP), AX
	VMOVUPD 0(AX), Y12      // [1, w^j] real
	VMOVUPD 32(AX), Y13     // [w^{2j}, w^{3j}] real
	VMOVUPD 64(AX), Y14     // imaginary parts
	VMOVUPD 96(AX), Y15
	VMOVUPD negHigh<>(SB), Y10
	VMOVUPD pm1<>(SB), Y11

fwd8Loop:
	VMOVUPD    (SI), Y0
	VMOVUPD    32(SI), Y1
	VMOVUPD    (DI), Y2
	VMOVUPD    32(DI), Y3
	VADDPD     Y1, Y0, Y4         // [a, c]
	VSUBPD     Y1, Y0, Y5         // [b, d]
	VADDPD     Y3, Y2, Y6
	VSUBPD     Y3, Y2, Y7
	VPERM2F128 $0x20, Y5, Y4, Y0  // E = [a, b]
	VPERM2F128 $0x31, Y5, Y4, Y1  // F = [c, d]
	VPERM2F128 $0x20, Y7, Y6, Y2
	VPERM2F128 $0x31, Y7, Y6, Y3
	VBLENDPD   $0x0C, Y3, Y1, Y8  // F' real: [c_r, d_i]
	VBLENDPD   $0x0C, Y1, Y3, Y9
	VXORPD     Y10, Y9, Y9        // F' imag: [c_i, -d_r]
	VADDPD     Y8, Y0, Y4         // G = E + F'
	VSUBPD     Y8, Y0, Y5         // H = E - F'
	VADDPD     Y9, Y2, Y6
	VSUBPD     Y9, Y2, Y7

	VMULPD      Y6, Y14, Y0
	VMULPD      Y6, Y12, Y1
	VFMSUB231PD Y12, Y4, Y0
	VFMADD231PD Y14, Y4, Y1
	VMULPD      Y7, Y15, Y2
	VMULPD      Y7, Y13, Y3
	VFMSUB231PD Y13, Y5, Y2
	VFMADD231PD Y15, Y5, Y3

	// Radix-2 tail on each lane pair.
	VPERMILPD   $5, Y0, Y4
	VPERMILPD   $5, Y1, Y5
	VPERMILPD   $5, Y2, Y6
	VPERMILPD   $5, Y3, Y7
	VFMADD132PD Y11, Y4, Y0
	VFMADD132PD Y11, Y5, Y1
	VFMADD132PD Y11, Y6, Y2
	VFMADD132PD Y11, Y7, Y3

	VMOVUPD Y0, (SI)
	VMOVUPD Y2, 32(SI)
	VMOVUPD Y1, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     fwd8Loop
	VZEROUPPER
	RET

// func halfInvStage8AVX2(re, im []float64, tw *[16]float64)
//
// The radix-2 head of the inverse and the inverse s=8 stage: the lane
// pairs are butterflied, A and B are multiplied by conj([1, w^j]) and
// conj([w^{2j}, w^{3j}]), A ± B = [a, c] and [b, e] with e = z1 - z3, and
// the outputs are E ± F' with E = [a, b] and F' = [c, i·e].
TEXT ·halfInvStage8AVX2(SB), NOSPLIT, $0-56
	MOVQ    re_base+0(FP), SI
	MOVQ    im_base+24(FP), DI
	MOVQ    re_len+8(FP), CX
	SHRQ    $3, CX
	MOVQ    tw+48(FP), AX
	VMOVUPD 0(AX), Y12
	VMOVUPD 32(AX), Y13
	VMOVUPD 64(AX), Y14
	VMOVUPD 96(AX), Y15
	VMOVUPD negHigh<>(SB), Y10
	VMOVUPD pm1<>(SB), Y11

inv8Loop:
	VMOVUPD     (SI), Y0
	VMOVUPD     32(SI), Y1
	VMOVUPD     (DI), Y2
	VMOVUPD     32(DI), Y3
	VPERMILPD   $5, Y0, Y4
	VPERMILPD   $5, Y1, Y5
	VPERMILPD   $5, Y2, Y6
	VPERMILPD   $5, Y3, Y7
	VFMADD132PD Y11, Y4, Y0
	VFMADD132PD Y11, Y5, Y1
	VFMADD132PD Y11, Y6, Y2
	VFMADD132PD Y11, Y7, Y3

	VMULPD      Y2, Y14, Y4
	VMULPD      Y0, Y14, Y5
	VFMADD231PD Y12, Y0, Y4       // A·conj([1, w^j])
	VFMSUB231PD Y12, Y2, Y5
	VMULPD      Y3, Y15, Y6
	VMULPD      Y1, Y15, Y7
	VFMADD231PD Y13, Y1, Y6       // B·conj([w^{2j}, w^{3j}])
	VFMSUB231PD Y13, Y3, Y7

	VADDPD     Y6, Y4, Y0         // [a, c]
	VSUBPD     Y6, Y4, Y1         // [b, e]
	VADDPD     Y7, Y5, Y2
	VSUBPD     Y7, Y5, Y3
	VPERM2F128 $0x20, Y1, Y0, Y4  // E = [a, b]
	VPERM2F128 $0x31, Y1, Y0, Y5  // F = [c, e]
	VPERM2F128 $0x20, Y3, Y2, Y6
	VPERM2F128 $0x31, Y3, Y2, Y7
	VBLENDPD   $0x0C, Y7, Y5, Y8
	VXORPD     Y10, Y8, Y8        // F' real: [c_r, -e_i]
	VBLENDPD   $0x0C, Y5, Y7, Y9  // F' imag: [c_i, e_r]
	VADDPD     Y8, Y4, Y0
	VSUBPD     Y8, Y4, Y1
	VADDPD     Y9, Y6, Y2
	VSUBPD     Y9, Y6, Y3

	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     inv8Loop
	VZEROUPPER
	RET

// func halfStage4AVX2(re, im []float64, signs *[8]uint64)
//
// The s=4 stage, whose twiddles are all one, one block of four points per
// iteration. With U = [x0, x1, x0, x1] and V = [x2, x3, x2, x3], P = U + V
// = [a, c, a, c] and Q = U - V = [b, e, b, e]; each output is [a, b, a, b]
// plus [c, e, c, e] with real and imaginary parts of e crossed over and
// the lanes picked by signs negated.
TEXT ·halfStage4AVX2(SB), NOSPLIT, $0-56
	MOVQ    re_base+0(FP), SI
	MOVQ    im_base+24(FP), DI
	MOVQ    re_len+8(FP), CX
	SHRQ    $2, CX
	MOVQ    signs+48(FP), AX
	VMOVUPD 0(AX), Y10
	VMOVUPD 32(AX), Y11

stage4Loop:
	VMOVUPD    (SI), Y0
	VMOVUPD    (DI), Y1
	VPERM2F128 $0x00, Y0, Y0, Y2
	VPERM2F128 $0x11, Y0, Y0, Y3
	VPERM2F128 $0x00, Y1, Y1, Y4
	VPERM2F128 $0x11, Y1, Y1, Y5
	VADDPD     Y3, Y2, Y6        // P real
	VSUBPD     Y3, Y2, Y7        // Q real
	VADDPD     Y5, Y4, Y8        // P imag
	VSUBPD     Y5, Y4, Y9        // Q imag
	VUNPCKLPD  Y7, Y6, Y0        // [a_r, b_r, a_r, b_r]
	VUNPCKHPD  Y9, Y6, Y2        // [c_r, e_i, c_r, e_i]
	VUNPCKLPD  Y9, Y8, Y1        // [a_i, b_i, a_i, b_i]
	VUNPCKHPD  Y7, Y8, Y3        // [c_i, e_r, c_i, e_r]
	VXORPD     Y10, Y2, Y2
	VXORPD     Y11, Y3, Y3
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y1, Y1
	VMOVUPD    Y0, (SI)
	VMOVUPD    Y1, (DI)
	ADDQ       $32, SI
	ADDQ       $32, DI
	DECQ       CX
	JNZ        stage4Loop
	VZEROUPPER
	RET

// func halfFoldIntAVX2(re, im, foldRe, foldIm []float64, src []int32)
//
// c_j = (a_j - i·a_{j+M})·e^{-iπj/N} for j < M = len(re), four points per
// iteration: re = a·cos - b·sin, im = -(a·sin) - b·cos.
TEXT ·halfFoldIntAVX2(SB), NOSPLIT, $0-120
	MOVQ re_base+0(FP), DI
	MOVQ im_base+24(FP), R8
	MOVQ foldRe_base+48(FP), R9
	MOVQ foldIm_base+72(FP), R10
	MOVQ src_base+96(FP), SI
	MOVQ re_len+8(FP), CX
	LEAQ (SI)(CX*4), DX
	XORQ AX, AX

foldLoop:
	VCVTDQ2PD    (SI)(AX*4), Y0
	VCVTDQ2PD    (DX)(AX*4), Y1
	VMOVUPD      (R9)(AX*8), Y2
	VMOVUPD      (R10)(AX*8), Y3
	VMULPD       Y1, Y3, Y4
	VMULPD       Y1, Y2, Y5
	VFMSUB231PD  Y2, Y0, Y4
	VFNMSUB231PD Y3, Y0, Y5
	VMOVUPD      Y4, (DI)(AX*8)
	VMOVUPD      Y5, (R8)(AX*8)
	ADDQ         $4, AX
	CMPQ         AX, CX
	JB           foldLoop
	VZEROUPPER
	RET

// func halfFoldTorusAVX2(re, im, foldRe, foldIm []float64, src []Torus32)
//
// Torus coefficients read as int32 are the same bits: same kernel.
TEXT ·halfFoldTorusAVX2(SB), NOSPLIT, $0-120
	JMP ·halfFoldIntAVX2(SB)

// func halfUnfoldAVX2(dst []Torus32, re, im, foldRe, foldIm []float64)
//
// dst_j += round(Re(c_j·e^{iπj/N})/M), dst_{j+M} += round(-Im(…)/M) for
// j < M = len(re), four points per iteration. 1/M is a power of two,
// built directly from its exponent (M is a power of two).
TEXT ·halfUnfoldAVX2(SB), NOSPLIT, $0-120
	MOVQ         dst_base+0(FP), DI
	MOVQ         re_base+24(FP), R8
	MOVQ         im_base+48(FP), R9
	MOVQ         foldRe_base+72(FP), R10
	MOVQ         foldIm_base+96(FP), R11
	MOVQ         re_len+32(FP), CX
	LEAQ         (DI)(CX*4), DX
	BSRQ         CX, AX
	MOVQ         $1023, BX
	SUBQ         AX, BX
	SHLQ         $52, BX
	MOVQ         BX, X15
	VBROADCASTSD X15, Y15                  // 1/M
	VBROADCASTSD roundMagic<>(SB), Y14
	VMOVDQU      packLow32<>(SB), Y13
	XORQ         AX, AX

unfoldLoop:
	VMOVUPD      (R8)(AX*8), Y0
	VMOVUPD      (R9)(AX*8), Y1
	VMULPD       Y15, Y0, Y0
	VMULPD       Y15, Y1, Y1
	VMOVUPD      (R10)(AX*8), Y2
	VMOVUPD      (R11)(AX*8), Y3
	VMULPD       Y1, Y3, Y4
	VMULPD       Y1, Y2, Y5
	VFMSUB231PD  Y2, Y0, Y4       // Re(c·e^{iπj/N})
	VFNMSUB231PD Y3, Y0, Y5       // -Im(c·e^{iπj/N})
	VADDPD       Y14, Y4, Y4
	VADDPD       Y14, Y5, Y5
	VPERMD       Y4, Y13, Y4
	VPERMD       Y5, Y13, Y5
	VPADDD       (DI)(AX*4), X4, X4
	VPADDD       (DX)(AX*4), X5, X5
	VMOVDQU      X4, (DI)(AX*4)
	VMOVDQU      X5, (DX)(AX*4)
	ADDQ         $4, AX
	CMPQ         AX, CX
	JB           unfoldLoop
	VZEROUPPER
	RET

// func mulAccPairAVX2(fr, fi, a1r, a1i, b1r, b1i, a2r, a2i, b2r, b2i *float64, m int)
//
// f += a1·b1 + a2·b2 over m points (a multiple of 4), four per iteration.
TEXT ·mulAccPairAVX2(SB), NOSPLIT, $0-88
	MOVQ fr+0(FP), DI
	MOVQ fi+8(FP), SI
	MOVQ a1r+16(FP), BX
	MOVQ a1i+24(FP), DX
	MOVQ b1r+32(FP), R8
	MOVQ b1i+40(FP), R9
	MOVQ a2r+48(FP), R10
	MOVQ a2i+56(FP), R11
	MOVQ b2r+64(FP), R12
	MOVQ b2i+72(FP), R13
	MOVQ m+80(FP), CX
	XORQ AX, AX

mulAccLoop:
	VMOVUPD      (DI)(AX*8), Y0
	VMOVUPD      (SI)(AX*8), Y1
	VMOVUPD      (BX)(AX*8), Y2
	VMOVUPD      (DX)(AX*8), Y3
	VMOVUPD      (R8)(AX*8), Y4
	VMOVUPD      (R9)(AX*8), Y5
	VMOVUPD      (R10)(AX*8), Y6
	VMOVUPD      (R11)(AX*8), Y7
	VMOVUPD      (R12)(AX*8), Y8
	VMOVUPD      (R13)(AX*8), Y9
	VFMADD231PD  Y4, Y2, Y0
	VFMADD231PD  Y5, Y2, Y1
	VFNMADD231PD Y5, Y3, Y0
	VFMADD231PD  Y4, Y3, Y1
	VFMADD231PD  Y8, Y6, Y0
	VFMADD231PD  Y9, Y6, Y1
	VFNMADD231PD Y9, Y7, Y0
	VFMADD231PD  Y8, Y7, Y1
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, (SI)(AX*8)
	ADDQ         $4, AX
	CMPQ         AX, CX
	JB           mulAccLoop
	VZEROUPPER
	RET

// func subAVX2(dst, src []Torus32)
//
// dst[i] -= src[i] for i < len(src), eight lanes of VPSUBD per step and a
// scalar tail.
TEXT ·subAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ CX, DX
	ANDQ $-8, DX
	XORQ AX, AX

subLoop:
	CMPQ    AX, DX
	JAE     subTail
	VMOVDQU (DI)(AX*4), Y0
	VPSUBD  (SI)(AX*4), Y0, Y0
	VMOVDQU Y0, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     subLoop

subTail:
	CMPQ AX, CX
	JAE  subDone
	MOVL (SI)(AX*4), BX
	SUBL BX, (DI)(AX*4)
	INCQ AX
	JMP  subTail

subDone:
	VZEROUPPER
	RET
