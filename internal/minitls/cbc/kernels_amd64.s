// AES-NI and SHA-NI kernels for TLS 1.2 AES-128-CBC-SHA records. The SHA-1
// compression follows Intel's SHA extensions reference flow; the key
// expansion follows expandKeyAsm in the Go toolchain's crypto/aes.

//go:build amd64 && !purego

#include "textflag.h"

// flipMask reverses the bytes of a 128-bit lane: SHA-1 reads big-endian
// words.
DATA flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func sha1Block(h *[5]uint32, p []byte)
// Absorbs the whole 64-byte blocks of p into h. X0 holds ABCD (A in the
// top lane), X1 and X2 take turns as E, X3-X6 are the message schedule,
// X7 the byte-flip mask, and X8/X9 keep E and ABCD for the final add.
TEXT ·sha1Block(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	ANDQ $-64, DX
	JZ   sha1Done
	ADDQ SI, DX
	MOVUPS (DI), X0
	PSHUFD $0x1b, X0, X0
	PXOR X1, X1
	PINSRD $3, 16(DI), X1
	MOVUPS flipMask<>(SB), X7

sha1Loop:
	MOVAPS X1, X8
	MOVAPS X0, X9

	// Rounds 0-3
	MOVUPS 0(SI), X3
	PSHUFB X7, X3
	PADDL X3, X1
	MOVAPS X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 4-7
	MOVUPS 16(SI), X4
	PSHUFB X7, X4
	SHA1NEXTE X4, X2
	MOVAPS X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1 X4, X3

	// Rounds 8-11
	MOVUPS 32(SI), X5
	PSHUFB X7, X5
	SHA1NEXTE X5, X1
	MOVAPS X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1 X5, X4
	PXOR X5, X3

	// Rounds 12-15
	MOVUPS 48(SI), X6
	PSHUFB X7, X6
	SHA1NEXTE X6, X2
	MOVAPS X0, X1
	SHA1MSG2 X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1 X6, X5
	PXOR X6, X4

	// Rounds 16-19
	SHA1NEXTE X3, X1
	MOVAPS X0, X2
	SHA1MSG2 X3, X4
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1 X3, X6
	PXOR X3, X5

	// Rounds 20-23
	SHA1NEXTE X4, X2
	MOVAPS X0, X1
	SHA1MSG2 X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1 X4, X3
	PXOR X4, X6

	// Rounds 24-27
	SHA1NEXTE X5, X1
	MOVAPS X0, X2
	SHA1MSG2 X5, X6
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1 X5, X4
	PXOR X5, X3

	// Rounds 28-31
	SHA1NEXTE X6, X2
	MOVAPS X0, X1
	SHA1MSG2 X6, X3
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1 X6, X5
	PXOR X6, X4

	// Rounds 32-35
	SHA1NEXTE X3, X1
	MOVAPS X0, X2
	SHA1MSG2 X3, X4
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1 X3, X6
	PXOR X3, X5

	// Rounds 36-39
	SHA1NEXTE X4, X2
	MOVAPS X0, X1
	SHA1MSG2 X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1 X4, X3
	PXOR X4, X6

	// Rounds 40-43
	SHA1NEXTE X5, X1
	MOVAPS X0, X2
	SHA1MSG2 X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1 X5, X4
	PXOR X5, X3

	// Rounds 44-47
	SHA1NEXTE X6, X2
	MOVAPS X0, X1
	SHA1MSG2 X6, X3
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1 X6, X5
	PXOR X6, X4

	// Rounds 48-51
	SHA1NEXTE X3, X1
	MOVAPS X0, X2
	SHA1MSG2 X3, X4
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1 X3, X6
	PXOR X3, X5

	// Rounds 52-55
	SHA1NEXTE X4, X2
	MOVAPS X0, X1
	SHA1MSG2 X4, X5
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1 X4, X3
	PXOR X4, X6

	// Rounds 56-59
	SHA1NEXTE X5, X1
	MOVAPS X0, X2
	SHA1MSG2 X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1 X5, X4
	PXOR X5, X3

	// Rounds 60-63
	SHA1NEXTE X6, X2
	MOVAPS X0, X1
	SHA1MSG2 X6, X3
	SHA1RNDS4 $3, X2, X0
	SHA1MSG1 X6, X5
	PXOR X6, X4

	// Rounds 64-67
	SHA1NEXTE X3, X1
	MOVAPS X0, X2
	SHA1MSG2 X3, X4
	SHA1RNDS4 $3, X1, X0
	SHA1MSG1 X3, X6
	PXOR X3, X5

	// Rounds 68-71
	SHA1NEXTE X4, X2
	MOVAPS X0, X1
	SHA1MSG2 X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR X4, X6

	// Rounds 72-75
	SHA1NEXTE X5, X1
	MOVAPS X0, X2
	SHA1MSG2 X5, X6
	SHA1RNDS4 $3, X1, X0

	// Rounds 76-79
	SHA1NEXTE X6, X2
	MOVAPS X0, X1
	SHA1RNDS4 $3, X2, X0

	// Add the state this block started from. E is X1 here, after the
	// last round's MOVAPS; SHA1NEXTE rotates it as the next block needs.
	SHA1NEXTE X8, X1
	PADDL X9, X0
	ADDQ $64, SI
	CMPQ SI, DX
	JNE  sha1Loop

	PSHUFD $0x1b, X0, X0
	MOVUPS X0, (DI)
	PEXTRD $3, X1, 16(DI)

sha1Done:
	RET

// One AES-128 key-schedule step: X0 holds the previous round key and X4
// a zero low lane; the next round key goes to X0 and to (BX).
#define EXPAND(rcon) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD $0xff, X1, X1; \
	SHUFPS $0x10, X0, X4; \
	PXOR X4, X0; \
	SHUFPS $0x8c, X0, X4; \
	PXOR X4, X0; \
	PXOR X1, X0; \
	MOVUPS X0, (BX); \
	ADDQ $16, BX

// func expandKey(key *[16]byte, enc, dec *[44]uint32)
// Writes the 11 encryption round keys to enc and the decryption schedule
// to dec: enc's keys in reverse order, AESIMC applied to the inner nine.
TEXT ·expandKey(SB), NOSPLIT, $0-24
	MOVQ key+0(FP), AX
	MOVQ enc+8(FP), BX
	MOVQ dec+16(FP), DX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	ADDQ $16, BX
	PXOR X4, X4
	EXPAND(0x01)
	EXPAND(0x02)
	EXPAND(0x04)
	EXPAND(0x08)
	EXPAND(0x10)
	EXPAND(0x20)
	EXPAND(0x40)
	EXPAND(0x80)
	EXPAND(0x1b)
	EXPAND(0x36)

	// BX is past the last round key, which X0 still holds.
	MOVUPS X0, (DX)
	SUBQ $16, BX
	MOVQ $9, CX

decKeys:
	MOVUPS -16(BX), X1
	AESIMC X1, X1
	ADDQ $16, DX
	MOVUPS X1, (DX)
	SUBQ $16, BX
	DECQ CX
	JNZ  decKeys
	MOVUPS -16(BX), X1
	MOVUPS X1, 16(DX)
	RET

// func encryptCBC(xk *[44]uint32, dst, src []byte, iv *[16]byte)
// Encrypts the whole blocks of src into dst, chaining from iv, with the 11
// round keys held in X1-X11.
TEXT ·encryptCBC(SB), NOSPLIT, $0-64
	MOVQ xk+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	MOVQ iv+56(FP), DX
	SHRQ $4, CX
	JZ   encDone
	MOVUPS (DX), X0
	MOVUPS 0(AX), X1
	MOVUPS 16(AX), X2
	MOVUPS 32(AX), X3
	MOVUPS 48(AX), X4
	MOVUPS 64(AX), X5
	MOVUPS 80(AX), X6
	MOVUPS 96(AX), X7
	MOVUPS 112(AX), X8
	MOVUPS 128(AX), X9
	MOVUPS 144(AX), X10
	MOVUPS 160(AX), X11

encLoop:
	MOVUPS (SI), X12
	PXOR X12, X0
	PXOR X1, X0
	AESENC X2, X0
	AESENC X3, X0
	AESENC X4, X0
	AESENC X5, X0
	AESENC X6, X0
	AESENC X7, X0
	AESENC X8, X0
	AESENC X9, X0
	AESENC X10, X0
	AESENCLAST X11, X0
	MOVUPS X0, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  encLoop

encDone:
	RET

// func decryptCBC(xk *[44]uint32, dst, src []byte, iv *[16]byte)
// Decrypts the whole blocks of src into dst, chaining from iv: four
// blocks at a time, whose AESDEC chains are independent, then one at a
// time. The 11 round keys stay in X1-X11 and X0 holds the previous
// ciphertext block. Every source block is read before its group is
// stored, so dst may be src.
TEXT ·decryptCBC(SB), NOSPLIT, $0-64
	MOVQ xk+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	MOVQ iv+56(FP), DX
	ANDQ $-16, CX
	JZ   decDone
	MOVUPS (DX), X0
	MOVUPS 0(AX), X1
	MOVUPS 16(AX), X2
	MOVUPS 32(AX), X3
	MOVUPS 48(AX), X4
	MOVUPS 64(AX), X5
	MOVUPS 80(AX), X6
	MOVUPS 96(AX), X7
	MOVUPS 112(AX), X8
	MOVUPS 128(AX), X9
	MOVUPS 144(AX), X10
	MOVUPS 160(AX), X11
	CMPQ CX, $64
	JB   decOne

decFour:
	MOVUPS (SI), X12
	MOVUPS 16(SI), X13
	MOVUPS 32(SI), X14
	MOVUPS 48(SI), X15
	PXOR X1, X12
	PXOR X1, X13
	PXOR X1, X14
	PXOR X1, X15
	AESDEC X2, X12
	AESDEC X2, X13
	AESDEC X2, X14
	AESDEC X2, X15
	AESDEC X3, X12
	AESDEC X3, X13
	AESDEC X3, X14
	AESDEC X3, X15
	AESDEC X4, X12
	AESDEC X4, X13
	AESDEC X4, X14
	AESDEC X4, X15
	AESDEC X5, X12
	AESDEC X5, X13
	AESDEC X5, X14
	AESDEC X5, X15
	AESDEC X6, X12
	AESDEC X6, X13
	AESDEC X6, X14
	AESDEC X6, X15
	AESDEC X7, X12
	AESDEC X7, X13
	AESDEC X7, X14
	AESDEC X7, X15
	AESDEC X8, X12
	AESDEC X8, X13
	AESDEC X8, X14
	AESDEC X8, X15
	AESDEC X9, X12
	AESDEC X9, X13
	AESDEC X9, X14
	AESDEC X9, X15
	AESDEC X10, X12
	AESDEC X10, X13
	AESDEC X10, X14
	AESDEC X10, X15
	AESDECLAST X11, X12
	AESDECLAST X11, X13
	AESDECLAST X11, X14
	AESDECLAST X11, X15
	PXOR X0, X12
	MOVUPS (SI), X0
	PXOR X0, X13
	MOVUPS 16(SI), X0
	PXOR X0, X14
	MOVUPS 32(SI), X0
	PXOR X0, X15
	MOVUPS 48(SI), X0
	MOVUPS X12, (DI)
	MOVUPS X13, 16(DI)
	MOVUPS X14, 32(DI)
	MOVUPS X15, 48(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  decFour
	TESTQ CX, CX
	JZ   decDone

decOne:
	MOVUPS (SI), X12
	MOVAPS X12, X13
	PXOR X1, X12
	AESDEC X2, X12
	AESDEC X3, X12
	AESDEC X4, X12
	AESDEC X5, X12
	AESDEC X6, X12
	AESDEC X7, X12
	AESDEC X8, X12
	AESDEC X9, X12
	AESDEC X10, X12
	AESDECLAST X11, X12
	PXOR X0, X12
	MOVAPS X13, X0
	MOVUPS X12, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $16, CX
	JNZ  decOne

decDone:
	RET
