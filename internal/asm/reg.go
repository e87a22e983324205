// Package asm models the x86-64 instruction subset CATI's substrate works
// with: an instruction representation, a byte-level encoder (REX / ModRM /
// SIB / displacements / immediates, SSE and x87 escapes), a byte-level
// decoder, and an AT&T-syntax printer compatible with objdump output (the
// representation the paper's VUCs are built from).
package asm

import "fmt"

// Reg names a machine register. The zero value RegNone means "no register"
// (e.g. an absent index in a memory operand).
type Reg uint8

// RegNone means "no register" (e.g. an absent index in a memory operand).
const RegNone Reg = 0

// Register constants. Families are laid out contiguously so arithmetic
// conversions between widths are cheap: RAX64+i, EAX+i, AX+i, AL+i all
// refer to hardware register number i for i in [0,16).
const (
	// 64-bit GPRs: hardware numbers 0..15.
	_ Reg = iota // 0 = RegNone
	RAX64
	RCX64
	RDX64
	RBX64
	RSP64
	RBP64
	RSI64
	RDI64
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// 32-bit GPRs.
	EAX
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
	R8D
	R9D
	R10D
	R11D
	R12D
	R13D
	R14D
	R15D

	// 16-bit GPRs.
	AX
	CX
	DX
	BX
	SP
	BP
	SI
	DI
	R8W
	R9W
	R10W
	R11W
	R12W
	R13W
	R14W
	R15W

	// 8-bit low registers (REX encodings for SPL..DIL).
	AL
	CL
	DL
	BL
	SPL
	BPL
	SIL
	DIL
	R8B
	R9B
	R10B
	R11B
	R12B
	R13B
	R14B
	R15B

	// 8-bit high registers (legacy non-REX encodings 4..7).
	AH
	CH
	DH
	BH

	// SSE registers.
	XMM0
	XMM1
	XMM2
	XMM3
	XMM4
	XMM5
	XMM6
	XMM7
	XMM8
	XMM9
	XMM10
	XMM11
	XMM12
	XMM13
	XMM14
	XMM15

	// x87 stack registers.
	ST0
	ST1
	ST2
	ST3
	ST4
	ST5
	ST6
	ST7

	// RIP for RIP-relative addressing.
	RIP

	// AVX registers (the 256-bit views of the XMM file; VEX-encoded only).
	YMM0
	YMM1
	YMM2
	YMM3
	YMM4
	YMM5
	YMM6
	YMM7
	YMM8
	YMM9
	YMM10
	YMM11
	YMM12
	YMM13
	YMM14
	YMM15

	// AVX-512 registers (the 512-bit views of the same file; EVEX-encoded
	// only). zmm16-31 are not modelled.
	ZMM0
	ZMM1
	ZMM2
	ZMM3
	ZMM4
	ZMM5
	ZMM6
	ZMM7
	ZMM8
	ZMM9
	ZMM10
	ZMM11
	ZMM12
	ZMM13
	ZMM14
	ZMM15
)

// Canonical aliases using conventional names for 64-bit GPRs.
const (
	RAX = RAX64
	RCX = RCX64
	RDX = RDX64
	RBX = RBX64
	RSP = RSP64
	RBP = RBP64
	RSI = RSI64
	RDI = RDI64
)

var regNames = map[Reg]string{
	RAX64: "rax", RCX64: "rcx", RDX64: "rdx", RBX64: "rbx",
	RSP64: "rsp", RBP64: "rbp", RSI64: "rsi", RDI64: "rdi",
	R8: "r8", R9: "r9", R10: "r10", R11: "r11",
	R12: "r12", R13: "r13", R14: "r14", R15: "r15",
	EAX: "eax", ECX: "ecx", EDX: "edx", EBX: "ebx",
	ESP: "esp", EBP: "ebp", ESI: "esi", EDI: "edi",
	R8D: "r8d", R9D: "r9d", R10D: "r10d", R11D: "r11d",
	R12D: "r12d", R13D: "r13d", R14D: "r14d", R15D: "r15d",
	AX: "ax", CX: "cx", DX: "dx", BX: "bx",
	SP: "sp", BP: "bp", SI: "si", DI: "di",
	R8W: "r8w", R9W: "r9w", R10W: "r10w", R11W: "r11w",
	R12W: "r12w", R13W: "r13w", R14W: "r14w", R15W: "r15w",
	AL: "al", CL: "cl", DL: "dl", BL: "bl",
	SPL: "spl", BPL: "bpl", SIL: "sil", DIL: "dil",
	R8B: "r8b", R9B: "r9b", R10B: "r10b", R11B: "r11b",
	R12B: "r12b", R13B: "r13b", R14B: "r14b", R15B: "r15b",
	AH: "ah", CH: "ch", DH: "dh", BH: "bh",
	XMM0: "xmm0", XMM1: "xmm1", XMM2: "xmm2", XMM3: "xmm3",
	XMM4: "xmm4", XMM5: "xmm5", XMM6: "xmm6", XMM7: "xmm7",
	XMM8: "xmm8", XMM9: "xmm9", XMM10: "xmm10", XMM11: "xmm11",
	XMM12: "xmm12", XMM13: "xmm13", XMM14: "xmm14", XMM15: "xmm15",
	ST0: "st", ST1: "st(1)", ST2: "st(2)", ST3: "st(3)",
	ST4: "st(4)", ST5: "st(5)", ST6: "st(6)", ST7: "st(7)",
	RIP:  "rip",
	YMM0: "ymm0", YMM1: "ymm1", YMM2: "ymm2", YMM3: "ymm3",
	YMM4: "ymm4", YMM5: "ymm5", YMM6: "ymm6", YMM7: "ymm7",
	YMM8: "ymm8", YMM9: "ymm9", YMM10: "ymm10", YMM11: "ymm11",
	YMM12: "ymm12", YMM13: "ymm13", YMM14: "ymm14", YMM15: "ymm15",
	ZMM0: "zmm0", ZMM1: "zmm1", ZMM2: "zmm2", ZMM3: "zmm3",
	ZMM4: "zmm4", ZMM5: "zmm5", ZMM6: "zmm6", ZMM7: "zmm7",
	ZMM8: "zmm8", ZMM9: "zmm9", ZMM10: "zmm10", ZMM11: "zmm11",
	ZMM12: "zmm12", ZMM13: "zmm13", ZMM14: "zmm14", ZMM15: "zmm15",
}

// String returns the conventional register name without the AT&T % sigil.
func (r Reg) String() string {
	if r == RegNone {
		return "none"
	}
	if n, ok := regNames[r]; ok {
		return n
	}
	return fmt.Sprintf("Reg(%d)", uint8(r))
}

// IsGPR reports whether r is a general-purpose register of any width.
func (r Reg) IsGPR() bool { return r >= RAX64 && r <= R15B || r >= AH && r <= BH }

// IsXMM reports whether r is an SSE register.
func (r Reg) IsXMM() bool { return r >= XMM0 && r <= XMM15 }

// IsYMM reports whether r is an AVX 256-bit register.
func (r Reg) IsYMM() bool { return r >= YMM0 && r <= YMM15 }

// IsZMM reports whether r is an AVX-512 register.
func (r Reg) IsZMM() bool { return r >= ZMM0 && r <= ZMM15 }

// IsST reports whether r is an x87 stack register.
func (r Reg) IsST() bool { return r >= ST0 && r <= ST7 }

// IsHighByte reports whether r is one of the legacy AH/CH/DH/BH registers,
// which cannot be encoded together with a REX prefix.
func (r Reg) IsHighByte() bool { return r >= AH && r <= BH }

// Num returns the 4-bit hardware register number (0..15).
func (r Reg) Num() int {
	switch {
	case r >= RAX64 && r <= R15:
		return int(r - RAX64)
	case r >= EAX && r <= R15D:
		return int(r - EAX)
	case r >= AX && r <= R15W:
		return int(r - AX)
	case r >= AL && r <= R15B:
		return int(r - AL)
	case r.IsHighByte():
		return int(r-AH) + 4
	case r.IsXMM():
		return int(r - XMM0)
	case r.IsYMM():
		return int(r - YMM0)
	case r.IsZMM():
		return int(r - ZMM0)
	case r.IsST():
		return int(r - ST0)
	default:
		return 0
	}
}

// Width returns the register width in bytes (x87 registers report 10,
// XMM 16, YMM 32, ZMM 64, RIP 8).
func (r Reg) Width() int {
	switch {
	case r >= RAX64 && r <= R15, r == RIP:
		return 8
	case r >= EAX && r <= R15D:
		return 4
	case r >= AX && r <= R15W:
		return 2
	case r >= AL && r <= BH:
		return 1
	case r.IsXMM():
		return 16
	case r.IsYMM():
		return 32
	case r.IsZMM():
		return 64
	case r.IsST():
		return 10
	default:
		return 0
	}
}

// GPR returns the general-purpose register with hardware number num
// (0..15) and the given width in bytes (1, 2, 4 or 8). High-byte legacy
// registers are never returned.
func GPR(num, width int) Reg {
	if num < 0 || num > 15 {
		return RegNone
	}
	switch width {
	case 8:
		return RAX64 + Reg(num)
	case 4:
		return EAX + Reg(num)
	case 2:
		return AX + Reg(num)
	case 1:
		return AL + Reg(num)
	default:
		return RegNone
	}
}

// XMM returns the SSE register with the given hardware number.
func XMM(num int) Reg {
	if num < 0 || num > 15 {
		return RegNone
	}
	return XMM0 + Reg(num)
}

// YMM returns the AVX register with the given hardware number.
func YMM(num int) Reg {
	if num < 0 || num > 15 {
		return RegNone
	}
	return YMM0 + Reg(num)
}

// ZMM returns the AVX-512 register with the given hardware number.
func ZMM(num int) Reg {
	if num < 0 || num > 15 {
		return RegNone
	}
	return ZMM0 + Reg(num)
}

// ST returns the x87 stack register with the given index.
func ST(num int) Reg {
	if num < 0 || num > 7 {
		return RegNone
	}
	return ST0 + Reg(num)
}

// WithWidth converts a GPR to the same hardware register at a different
// width. Non-GPRs are returned unchanged.
func (r Reg) WithWidth(width int) Reg {
	if !r.IsGPR() || r.IsHighByte() {
		if r.IsHighByte() && width == 1 {
			return r
		}
		return r
	}
	return GPR(r.Num(), width)
}
