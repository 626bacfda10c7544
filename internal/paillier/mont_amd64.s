// addMulVVW2048 below is the ADX body of addMulVVW2048 from Go's
// crypto/internal/fips140/bigmod/nat_amd64.s (generated there by avo),
// which carries this notice:
//
// Copyright 2023 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// The Go LICENSE file it refers to reads:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
//
// Changes: the non-ADX fallback and the supportADX branch are removed —
// the caller selects this kernel only when CPUID reports ADX and BMI2
// (mont_amd64.go) — and cpuid is added.

//go:build amd64 && !purego

#include "textflag.h"

// func addMulVVW2048(z *uint, x *uint, y uint) (c uint)
// Requires: ADX, BMI2
//
// z[0:32] += x[0:32]·y, returning the carry word. Two carry chains (CF
// through ADCX, OF through ADOX) run in parallel across the fully
// unrolled loop.
TEXT ·addMulVVW2048(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), AX
	MOVQ x+8(FP), CX
	MOVQ y+16(FP), DX
	XORQ BX, BX
	XORQ SI, SI

	// Iteration 0
	MULXQ (CX), R8, DI
	ADCXQ BX, R8
	ADOXQ (AX), R8
	MOVQ  R8, (AX)

	// Iteration 1
	MULXQ 8(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 8(AX), R8
	MOVQ  R8, 8(AX)

	// Iteration 2
	MULXQ 16(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 16(AX), R8
	MOVQ  R8, 16(AX)

	// Iteration 3
	MULXQ 24(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 24(AX), R8
	MOVQ  R8, 24(AX)

	// Iteration 4
	MULXQ 32(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 32(AX), R8
	MOVQ  R8, 32(AX)

	// Iteration 5
	MULXQ 40(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 40(AX), R8
	MOVQ  R8, 40(AX)

	// Iteration 6
	MULXQ 48(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 48(AX), R8
	MOVQ  R8, 48(AX)

	// Iteration 7
	MULXQ 56(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 56(AX), R8
	MOVQ  R8, 56(AX)

	// Iteration 8
	MULXQ 64(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 64(AX), R8
	MOVQ  R8, 64(AX)

	// Iteration 9
	MULXQ 72(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 72(AX), R8
	MOVQ  R8, 72(AX)

	// Iteration 10
	MULXQ 80(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 80(AX), R8
	MOVQ  R8, 80(AX)

	// Iteration 11
	MULXQ 88(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 88(AX), R8
	MOVQ  R8, 88(AX)

	// Iteration 12
	MULXQ 96(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 96(AX), R8
	MOVQ  R8, 96(AX)

	// Iteration 13
	MULXQ 104(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 104(AX), R8
	MOVQ  R8, 104(AX)

	// Iteration 14
	MULXQ 112(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 112(AX), R8
	MOVQ  R8, 112(AX)

	// Iteration 15
	MULXQ 120(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 120(AX), R8
	MOVQ  R8, 120(AX)

	// Iteration 16
	MULXQ 128(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 128(AX), R8
	MOVQ  R8, 128(AX)

	// Iteration 17
	MULXQ 136(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 136(AX), R8
	MOVQ  R8, 136(AX)

	// Iteration 18
	MULXQ 144(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 144(AX), R8
	MOVQ  R8, 144(AX)

	// Iteration 19
	MULXQ 152(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 152(AX), R8
	MOVQ  R8, 152(AX)

	// Iteration 20
	MULXQ 160(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 160(AX), R8
	MOVQ  R8, 160(AX)

	// Iteration 21
	MULXQ 168(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 168(AX), R8
	MOVQ  R8, 168(AX)

	// Iteration 22
	MULXQ 176(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 176(AX), R8
	MOVQ  R8, 176(AX)

	// Iteration 23
	MULXQ 184(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 184(AX), R8
	MOVQ  R8, 184(AX)

	// Iteration 24
	MULXQ 192(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 192(AX), R8
	MOVQ  R8, 192(AX)

	// Iteration 25
	MULXQ 200(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 200(AX), R8
	MOVQ  R8, 200(AX)

	// Iteration 26
	MULXQ 208(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 208(AX), R8
	MOVQ  R8, 208(AX)

	// Iteration 27
	MULXQ 216(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 216(AX), R8
	MOVQ  R8, 216(AX)

	// Iteration 28
	MULXQ 224(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 224(AX), R8
	MOVQ  R8, 224(AX)

	// Iteration 29
	MULXQ 232(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 232(AX), R8
	MOVQ  R8, 232(AX)

	// Iteration 30
	MULXQ 240(CX), R8, DI
	ADCXQ BX, R8
	ADOXQ 240(AX), R8
	MOVQ  R8, 240(AX)

	// Iteration 31
	MULXQ 248(CX), R8, BX
	ADCXQ DI, R8
	ADOXQ 248(AX), R8
	MOVQ  R8, 248(AX)

	// Add back carry flags and return
	ADCXQ SI, BX
	ADOXQ SI, BX
	MOVQ  BX, c+24(FP)
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
