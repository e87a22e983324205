package asm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestRegProperties(t *testing.T) {
	tests := []struct {
		reg   Reg
		num   int
		width int
		name  string
	}{
		{RAX, 0, 8, "rax"},
		{RSP, 4, 8, "rsp"},
		{R15, 15, 8, "r15"},
		{EAX, 0, 4, "eax"},
		{R8D, 8, 4, "r8d"},
		{AX, 0, 2, "ax"},
		{AL, 0, 1, "al"},
		{SIL, 6, 1, "sil"},
		{R15B, 15, 1, "r15b"},
		{AH, 4, 1, "ah"},
		{BH, 7, 1, "bh"},
		{XMM0, 0, 16, "xmm0"},
		{XMM15, 15, 16, "xmm15"},
		{ST0, 0, 10, "st"},
		{ST7, 7, 10, "st(7)"},
		{RIP, 0, 8, "rip"},
	}
	for _, tt := range tests {
		if got := tt.reg.Num(); got != tt.num {
			t.Errorf("%s: Num = %d, want %d", tt.name, got, tt.num)
		}
		if got := tt.reg.Width(); got != tt.width {
			t.Errorf("%s: Width = %d, want %d", tt.name, got, tt.width)
		}
		if got := tt.reg.String(); got != tt.name {
			t.Errorf("Reg name = %q, want %q", got, tt.name)
		}
	}
}

func TestGPRConstruction(t *testing.T) {
	for num := 0; num < 16; num++ {
		for _, w := range []int{1, 2, 4, 8} {
			r := GPR(num, w)
			if r == RegNone {
				t.Fatalf("GPR(%d,%d) = none", num, w)
			}
			if r.Num() != num || r.Width() != w {
				t.Errorf("GPR(%d,%d): got num=%d width=%d", num, w, r.Num(), r.Width())
			}
		}
	}
	if GPR(16, 8) != RegNone || GPR(-1, 4) != RegNone || GPR(3, 3) != RegNone {
		t.Error("out-of-range GPR should be RegNone")
	}
}

func TestWithWidth(t *testing.T) {
	if got := RAX.WithWidth(4); got != EAX {
		t.Errorf("rax→4 = %s", got)
	}
	if got := R9D.WithWidth(8); got != R9 {
		t.Errorf("r9d→8 = %s", got)
	}
	if got := DIL.WithWidth(8); got != RDI {
		t.Errorf("dil→8 = %s", got)
	}
	if got := XMM3.WithWidth(4); got != XMM3 {
		t.Errorf("xmm3 changed: %s", got)
	}
}

// golden encodings verified against GNU as/objdump output.
func TestGoldenEncodings(t *testing.T) {
	tests := []struct {
		name string
		in   Inst
		want []byte
	}{
		{"push rbp", NewInst(OpPUSH, 8, R(RBP)), []byte{0x55}},
		{"push r12", NewInst(OpPUSH, 8, R(R12)), []byte{0x41, 0x54}},
		{"pop rbp", NewInst(OpPOP, 8, R(RBP)), []byte{0x5D}},
		{"mov rbp, rsp", NewInst(OpMOV, 8, R(RBP), R(RSP)), []byte{0x48, 0x89, 0xE5}},
		{"sub rsp, 0x20", NewInst(OpSUB, 8, R(RSP), Imm{0x20}), []byte{0x48, 0x83, 0xEC, 0x20}},
		{"mov eax, [rbp-4]", NewInst(OpMOV, 4, R(EAX), MemD(RBP, -4)), []byte{0x8B, 0x45, 0xFC}},
		{"mov [rbp-0x14], edi", NewInst(OpMOV, 4, MemD(RBP, -0x14), R(EDI)), []byte{0x89, 0x7D, 0xEC}},
		{"movl $0, [rbp-4]", NewInst(OpMOV, 4, MemD(RBP, -4), Imm{0}), []byte{0xC7, 0x45, 0xFC, 0, 0, 0, 0}},
		{"movq $0, [rsp+0xa8]", NewInst(OpMOV, 8, MemD(RSP, 0xa8), Imm{0}),
			[]byte{0x48, 0xC7, 0x84, 0x24, 0xA8, 0, 0, 0, 0, 0, 0, 0}},
		{"movb $0, [rsp+0xc0]", NewInst(OpMOV, 1, MemD(RSP, 0xc0), Imm{0}),
			[]byte{0xC6, 0x84, 0x24, 0xC0, 0, 0, 0, 0}},
		{"lea rax, [rsp+0x220]", NewInst(OpLEA, 8, R(RAX), MemD(RSP, 0x220)),
			[]byte{0x48, 0x8D, 0x84, 0x24, 0x20, 0x02, 0, 0}},
		{"movzx eax, byte [rbp-1]", NewInst(OpMOVZX, 1, R(EAX), MemD(RBP, -1)),
			[]byte{0x0F, 0xB6, 0x45, 0xFF}},
		{"movsxd rsi, esi", NewInst(OpMOVSXD, 8, R(RSI), R(ESI)), []byte{0x48, 0x63, 0xF6}},
		{"mov rdx, r15", NewInst(OpMOV, 8, R(RDX), R(R15)), []byte{0x4C, 0x89, 0xFA}},
		{"mov ecx, [rax+rbx*4]", NewInst(OpMOV, 4, R(ECX), MemSIB(RAX, RBX, 4, 0)),
			[]byte{0x8B, 0x0C, 0x98}},
		{"test eax, eax", NewInst(OpTEST, 4, R(EAX), R(EAX)), []byte{0x85, 0xC0}},
		{"sete al", NewInst(OpSETE, 1, R(AL)), []byte{0x0F, 0x94, 0xC0}},
		{"addsd xmm0, xmm1", NewInst(OpADDSD, 8, R(XMM0), R(XMM1)), []byte{0xF2, 0x0F, 0x58, 0xC1}},
		{"cvtsi2sd xmm0, eax", NewInst(OpCVTSI2SD, 4, R(XMM0), R(EAX)), []byte{0xF2, 0x0F, 0x2A, 0xC0}},
		{"movss xmm0, [rbp-8]", NewInst(OpMOVSS, 4, R(XMM0), MemD(RBP, -8)),
			[]byte{0xF3, 0x0F, 0x10, 0x45, 0xF8}},
		{"movsd [rsp+8], xmm2", NewInst(OpMOVSD, 8, MemD(RSP, 8), R(XMM2)),
			[]byte{0xF2, 0x0F, 0x11, 0x54, 0x24, 0x08}},
		{"fldt [rsp+0x10]", NewInst(OpFLD, 10, MemD(RSP, 0x10)), []byte{0xDB, 0x6C, 0x24, 0x10}},
		{"fstpt [rsp+0x10]", NewInst(OpFSTP, 10, MemD(RSP, 0x10)), []byte{0xDB, 0x7C, 0x24, 0x10}},
		{"faddp", NewInst(OpFADDP, 0), []byte{0xDE, 0xC1}},
		{"ret", NewInst(OpRET, 0), []byte{0xC3}},
		{"leave", NewInst(OpLEAVE, 0), []byte{0xC9}},
		{"nop", NewInst(OpNOP, 0), []byte{0x90}},
		{"cdq", NewInst(OpCDQ, 0), []byte{0x99}},
		{"cqo", NewInst(OpCQO, 0), []byte{0x48, 0x99}},
		{"imul eax, ecx", NewInst(OpIMUL, 4, R(EAX), R(ECX)), []byte{0x0F, 0xAF, 0xC1}},
		{"xor eax, eax", NewInst(OpXOR, 4, R(EAX), R(EAX)), []byte{0x31, 0xC0}},
		{"add [rbp-8], rax", NewInst(OpADD, 8, MemD(RBP, -8), R(RAX)), []byte{0x48, 0x01, 0x45, 0xF8}},
		{"cmp eax, 0x100", NewInst(OpCMP, 4, R(EAX), Imm{0x100}), []byte{0x81, 0xF8, 0, 1, 0, 0}},
		{"shl eax, 3", NewInst(OpSHL, 4, R(EAX), Imm{3}), []byte{0xC1, 0xE0, 0x03}},
		{"inc dword [rbp-4]", NewInst(OpINC, 4, MemD(RBP, -4)), []byte{0xFF, 0x45, 0xFC}},
		{"movabs rax, big", NewInst(OpMOVABS, 8, R(RAX), Imm{0x1122334455667788}),
			[]byte{0x48, 0xB8, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}},
		{"mov sil, 1", NewInst(OpMOV, 1, R(SIL), Imm{1}), []byte{0x40, 0xB6, 0x01}},
		{"movss [r13+0], xmm0", NewInst(OpMOVSS, 4, MemD(R13, 0), R(XMM0)),
			[]byte{0xF3, 0x41, 0x0F, 0x11, 0x45, 0x00}},
		{"cmove eax, ecx", NewInst(OpCMOVE, 4, R(EAX), R(ECX)), []byte{0x0F, 0x44, 0xC1}},
		{"cmovg rdx, [rbp-8]", NewInst(OpCMOVG, 8, R(RDX), MemD(RBP, -8)),
			[]byte{0x48, 0x0F, 0x4F, 0x55, 0xF8}},
		{"xchg eax, ecx", NewInst(OpXCHG, 4, R(EAX), R(ECX)), []byte{0x87, 0xC8}},
		{"adc eax, 1", NewInst(OpADC, 4, R(EAX), Imm{1}), []byte{0x83, 0xD0, 0x01}},
		{"sbb rdx, rax", NewInst(OpSBB, 8, R(RDX), R(RAX)), []byte{0x48, 0x19, 0xC2}},
		{"rol eax, 3", NewInst(OpROL, 4, R(EAX), Imm{3}), []byte{0xC1, 0xC0, 0x03}},
		{"movaps xmm1, xmm2", NewInst(OpMOVAPS, 16, R(XMM1), R(XMM2)), []byte{0x0F, 0x28, 0xCA}},
		{"movq xmm0, rax", NewInst(OpMOVQX, 8, R(XMM0), R(RAX)), []byte{0x66, 0x48, 0x0F, 0x6E, 0xC0}},
		{"movq rax, xmm0", NewInst(OpMOVQX, 8, R(RAX), R(XMM0)), []byte{0x66, 0x48, 0x0F, 0x7E, 0xC0}},
	}
	for _, tt := range tests {
		got, err := Encode(tt.in)
		if err != nil {
			t.Errorf("%s: encode error: %v", tt.name, err)
			continue
		}
		if !bytes.Equal(got, tt.want) {
			t.Errorf("%s: encoded % x, want % x", tt.name, got, tt.want)
		}
	}
}

func TestGoldenBranches(t *testing.T) {
	call := NewInst(OpCALL, 0, Sym{Addr: 0x2000, Resolved: true})
	call.Addr = 0x1000
	got, err := Encode(call)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	want := []byte{0xE8, 0xFB, 0x0F, 0x00, 0x00}
	if !bytes.Equal(got, want) {
		t.Errorf("call: % x, want % x", got, want)
	}

	je := NewInst(OpJE, 0, Sym{Addr: 0x1000, Resolved: true})
	je.Addr = 0x1100
	got, err = Encode(je)
	if err != nil {
		t.Fatalf("je: %v", err)
	}
	// rel = 0x1000 - 0x1106 = -0x106.
	want = []byte{0x0F, 0x84, 0xFA, 0xFE, 0xFF, 0xFF}
	if !bytes.Equal(got, want) {
		t.Errorf("je: % x, want % x", got, want)
	}
}

func TestEncodeErrors(t *testing.T) {
	tests := []struct {
		name string
		in   Inst
		want error
	}{
		{"rsp index", NewInst(OpMOV, 8, R(RAX), MemSIB(RAX, RSP, 2, 0)), ErrRSPIndex},
		{"bad scale", NewInst(OpMOV, 8, R(RAX), MemSIB(RAX, RBX, 3, 0)), ErrBadScale},
		{"unresolved sym", NewInst(OpCALL, 0, Sym{Name: "f"}), ErrUnresolved},
		{"imm too large", NewInst(OpMOV, 8, R(RAX), Imm{1 << 40}), ErrImmTooLarge},
		{"high byte + rex", NewInst(OpMOV, 1, R(AH), R(R8B)), ErrHighByteREX},
		{"push 32-bit reg", NewInst(OpPUSH, 4, R(EAX)), ErrBadOperands},
		{"lea from reg", NewInst(OpLEA, 8, R(RAX), R(RBX)), ErrBadOperands},
		{"mov mem imm no width", NewInst(OpMOV, 0, MemD(RBP, -8), Imm{1}), ErrBadWidth},
		{"shift too far", NewInst(OpSHL, 4, R(EAX), Imm{64}), ErrImmTooLarge},
		{"shift by dl", NewInst(OpSHL, 4, R(EAX), R(DL)), ErrBadOperands},
	}
	for _, tt := range tests {
		if _, err := Encode(tt.in); !errors.Is(err, tt.want) {
			t.Errorf("%s: error = %v, want %v", tt.name, err, tt.want)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	full, err := Encode(NewInst(OpLEA, 8, R(RAX), MemD(RSP, 0x220)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(full); i++ {
		if _, err := Decode(full[:i], 0); !errors.Is(err, ErrTruncated) {
			t.Errorf("prefix of length %d: error = %v, want ErrTruncated", i, err)
		}
	}
}

func TestDecodeAllStream(t *testing.T) {
	var u Unit
	u.AddOp(OpPUSH, 8, R(RBP))
	u.AddOp(OpMOV, 8, R(RBP), R(RSP))
	u.AddOp(OpSUB, 8, R(RSP), Imm{0x20})
	u.AddOp(OpMOV, 4, MemD(RBP, -4), Imm{7})
	u.AddOp(OpMOV, 4, R(EAX), MemD(RBP, -4))
	u.AddOp(OpLEAVE, 0)
	u.AddOp(OpRET, 0)
	asmOut, err := u.Assemble(0x401000, nil)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := DecodeAll(asmOut.Code, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 7 {
		t.Fatalf("decoded %d instructions, want 7", len(insts))
	}
	for i := range insts {
		if !insts[i].Equal(&asmOut.Insts[i]) {
			t.Errorf("inst %d: decoded %s, want %s", i, Print(&insts[i]), Print(&asmOut.Insts[i]))
		}
	}
	// Addresses must be contiguous.
	next := uint64(0x401000)
	for i := range insts {
		if insts[i].Addr != next {
			t.Errorf("inst %d addr %#x, want %#x", i, insts[i].Addr, next)
		}
		next += uint64(insts[i].Len)
	}
}

// randGPR picks a random GPR avoiding RSP (stack pointer makes some
// encodings special-cased; covered by dedicated tests).
func randGPR(r *rand.Rand, w int) Reg {
	for {
		n := r.Intn(16)
		if n == 4 {
			continue
		}
		return GPR(n, w)
	}
}

func randMem(r *rand.Rand) Mem {
	base := randGPR(r, 8)
	switch r.Intn(4) {
	case 0:
		return MemD(base, int32(int8(r.Intn(256))))
	case 1:
		return MemD(base, r.Int31()-1<<30)
	case 2:
		return MemD(RSP, int32(r.Intn(0x400)))
	default:
		scales := []uint8{1, 2, 4, 8}
		return MemSIB(base, randGPR(r, 8), scales[r.Intn(4)], int32(r.Intn(0x1000))-0x800)
	}
}

func randImm(r *rand.Rand, w int) Imm {
	switch w {
	case 1:
		return Imm{int64(r.Intn(256)) - 128}
	case 2:
		return Imm{int64(r.Intn(1<<16)) - 1<<15}
	default:
		return Imm{int64(r.Int31()) - 1<<30}
	}
}

// randInst generates a random canonical instruction for round-trip testing.
func randInst(r *rand.Rand) Inst {
	widths := []int{1, 2, 4, 8}
	w := widths[r.Intn(4)]
	alu := []Op{OpADD, OpSUB, OpAND, OpOR, OpXOR, OpCMP, OpADC, OpSBB}
	switch r.Intn(18) {
	case 0: // mov reg, reg
		return NewInst(OpMOV, w, R(randGPR(r, w)), R(randGPR(r, w)))
	case 1: // mov reg, mem
		return NewInst(OpMOV, w, R(randGPR(r, w)), randMem(r))
	case 2: // mov mem, reg
		return NewInst(OpMOV, w, randMem(r), R(randGPR(r, w)))
	case 3: // mov mem, imm
		return NewInst(OpMOV, w, randMem(r), randImm(r, w))
	case 4: // alu reg, reg/mem/imm
		op := alu[r.Intn(len(alu))]
		switch r.Intn(3) {
		case 0:
			return NewInst(op, w, R(randGPR(r, w)), R(randGPR(r, w)))
		case 1:
			return NewInst(op, w, R(randGPR(r, w)), randMem(r))
		default:
			return NewInst(op, w, R(randGPR(r, w)), randImm(r, w))
		}
	case 5: // alu mem, reg / mem, imm
		op := alu[r.Intn(len(alu))]
		if r.Intn(2) == 0 {
			return NewInst(op, w, randMem(r), R(randGPR(r, w)))
		}
		return NewInst(op, w, randMem(r), randImm(r, w))
	case 6: // movzx/movsx
		srcW := 1 + r.Intn(2) // 1 or 2
		dstWs := []int{4, 8}
		dstW := dstWs[r.Intn(2)]
		if srcW == 2 && dstW == 2 {
			dstW = 4
		}
		op := OpMOVZX
		if r.Intn(2) == 0 {
			op = OpMOVSX
		}
		if r.Intn(2) == 0 {
			return NewInst(op, srcW, R(randGPR(r, dstW)), R(randGPR(r, srcW)))
		}
		return NewInst(op, srcW, R(randGPR(r, dstW)), randMem(r))
	case 7: // lea
		w64 := []int{4, 8}[r.Intn(2)]
		return NewInst(OpLEA, w64, R(randGPR(r, w64)), randMem(r))
	case 8: // push/pop
		if r.Intn(2) == 0 {
			return NewInst(OpPUSH, 8, R(randGPR(r, 8)))
		}
		return NewInst(OpPOP, 8, R(randGPR(r, 8)))
	case 9: // unary group
		ops := []Op{OpNEG, OpNOT, OpINC, OpDEC, OpIDIV}
		op := ops[r.Intn(len(ops))]
		if r.Intn(2) == 0 {
			return NewInst(op, w, R(randGPR(r, w)))
		}
		return NewInst(op, w, randMem(r))
	case 10: // shift / rotate
		ops := []Op{OpSHL, OpSHR, OpSAR, OpROL, OpROR}
		op := ops[r.Intn(len(ops))]
		if r.Intn(2) == 0 {
			return NewInst(op, w, R(randGPR(r, w)), Imm{int64(r.Intn(32))})
		}
		return NewInst(op, w, R(randGPR(r, w)), R(CL))
	case 11: // test / setcc
		if r.Intn(2) == 0 {
			return NewInst(OpTEST, w, R(randGPR(r, w)), R(randGPR(r, w)))
		}
		sets := []Op{OpSETE, OpSETNE, OpSETL, OpSETG, OpSETB, OpSETA, OpSETS, OpSETNS}
		return NewInst(sets[r.Intn(len(sets))], 1, R(randGPR(r, 1)))
	case 12: // SSE mov/arith
		sd := r.Intn(2) == 1
		fw := 4
		if sd {
			fw = 8
		}
		movOp, addOp := OpMOVSS, OpADDSS
		if sd {
			movOp, addOp = OpMOVSD, OpADDSD
		}
		switch r.Intn(4) {
		case 0:
			return NewInst(movOp, fw, R(XMM(r.Intn(16))), randMem(r))
		case 1:
			return NewInst(movOp, fw, randMem(r), R(XMM(r.Intn(16))))
		case 2:
			return NewInst(addOp, fw, R(XMM(r.Intn(16))), R(XMM(r.Intn(16))))
		default:
			return NewInst(addOp, fw, R(XMM(r.Intn(16))), randMem(r))
		}
	case 13: // conversions
		intW := []int{4, 8}[r.Intn(2)]
		switch r.Intn(3) {
		case 0:
			return NewInst(OpCVTSI2SD, intW, R(XMM(r.Intn(16))), R(randGPR(r, intW)))
		case 1:
			return NewInst(OpCVTTSD2SI, intW, R(randGPR(r, intW)), R(XMM(r.Intn(16))))
		default:
			return NewInst(OpCVTSS2SD, 4, R(XMM(r.Intn(16))), R(XMM(r.Intn(16))))
		}
	case 14: // x87
		fw := []int{4, 8, 10}[r.Intn(3)]
		switch r.Intn(4) {
		case 0:
			return NewInst(OpFLD, fw, randMem(r))
		case 1:
			return NewInst(OpFSTP, fw, randMem(r))
		case 2:
			return NewInst(OpFILD, []int{2, 4, 8}[r.Intn(3)], randMem(r))
		default:
			ops := []Op{OpFADDP, OpFMULP, OpFSUBP, OpFDIVP, OpFCHS, OpFXCH, OpFUCOMIP}
			return NewInst(ops[r.Intn(len(ops))], 0)
		}
	case 15: // cmov
		cmovs := []Op{OpCMOVE, OpCMOVNE, OpCMOVL, OpCMOVG, OpCMOVB, OpCMOVA, OpCMOVS, OpCMOVNS}
		cw := []int{2, 4, 8}[r.Intn(3)]
		op := cmovs[r.Intn(len(cmovs))]
		if r.Intn(2) == 0 {
			return NewInst(op, cw, R(randGPR(r, cw)), R(randGPR(r, cw)))
		}
		return NewInst(op, cw, R(randGPR(r, cw)), randMem(r))
	case 16: // xchg / movq-x / movaps
		switch r.Intn(3) {
		case 0:
			return NewInst(OpXCHG, w, R(randGPR(r, w)), R(randGPR(r, w)))
		case 1:
			if r.Intn(2) == 0 {
				return NewInst(OpMOVQX, 8, R(XMM(r.Intn(16))), R(randGPR(r, 8)))
			}
			return NewInst(OpMOVQX, 8, R(randGPR(r, 8)), R(XMM(r.Intn(16))))
		default:
			if r.Intn(2) == 0 {
				return NewInst(OpMOVAPS, 16, R(XMM(r.Intn(16))), R(XMM(r.Intn(16))))
			}
			return NewInst(OpMOVAPS, 16, randMem(r), R(XMM(r.Intn(16))))
		}
	default: // misc
		misc := []Inst{
			NewInst(OpNOP, 0),
			NewInst(OpRET, 0),
			NewInst(OpLEAVE, 0),
			NewInst(OpCDQ, 0),
			NewInst(OpCQO, 0),
			NewInst(OpIMUL, w, R(randGPR(r, []int{2, 4, 8}[r.Intn(3)])), R(randGPR(r, 0))),
		}
		in := misc[r.Intn(len(misc))]
		if in.Op == OpIMUL {
			// two-operand imul requires matching widths
			iw := []int{2, 4, 8}[r.Intn(3)]
			in = NewInst(OpIMUL, iw, R(randGPR(r, iw)), R(randGPR(r, iw)))
		}
		return in
	}
}

func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		in := randInst(r)
		code, err := Encode(in)
		if err != nil {
			t.Fatalf("#%d %s: encode: %v", i, Print(&in), err)
		}
		if len(code) == 0 || len(code) > 15 {
			t.Fatalf("#%d %s: bad length %d", i, Print(&in), len(code))
		}
		out, err := Decode(code, 0x400000)
		if err != nil {
			t.Fatalf("#%d %s (% x): decode: %v", i, Print(&in), code, err)
		}
		if out.Len != len(code) {
			t.Fatalf("#%d %s: decoded length %d, want %d", i, Print(&in), out.Len, len(code))
		}
		if !out.Equal(&in) {
			t.Fatalf("#%d: encoded %s (% x) decoded as %s", i, Print(&in), code, Print(&out))
		}
	}
}

func TestPropertyBranchRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	branches := []Op{OpCALL, OpJMP, OpJE, OpJNE, OpJL, OpJLE, OpJG, OpJGE, OpJB, OpJBE, OpJA, OpJAE, OpJS, OpJNS}
	for i := 0; i < 2000; i++ {
		addr := uint64(0x400000 + r.Intn(1<<20))
		target := uint64(0x400000 + r.Intn(1<<20))
		in := NewInst(branches[r.Intn(len(branches))], 0, Sym{Addr: target, Resolved: true})
		in.Addr = addr
		code, err := Encode(in)
		if err != nil {
			t.Fatalf("encode branch: %v", err)
		}
		out, err := Decode(code, addr)
		if err != nil {
			t.Fatalf("decode branch: %v", err)
		}
		if out.Op != in.Op {
			t.Fatalf("op %s → %s", in.Op, out.Op)
		}
		s, ok := out.Args[0].(Sym)
		if !ok || s.Addr != target {
			t.Fatalf("branch target %#x → %#x", target, s.Addr)
		}
	}
}

func TestAssembleForwardBackward(t *testing.T) {
	var u Unit
	u.Label("start")
	u.AddOp(OpMOV, 4, R(EAX), Imm{0})
	u.Label("loop")
	u.AddOp(OpADD, 4, R(EAX), Imm{1})
	u.AddOp(OpCMP, 4, R(EAX), Imm{10})
	u.AddOp(OpJL, 0, Sym{Name: "loop"})
	u.AddOp(OpJMP, 0, Sym{Name: "done"})
	u.AddOp(OpNOP, 0)
	u.Label("done")
	u.AddOp(OpRET, 0)
	out, err := u.Assemble(0x1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Labels["start"] != 0x1000 {
		t.Errorf("start = %#x", out.Labels["start"])
	}
	insts, err := DecodeAll(out.Code, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	// The jl must target the loop label.
	var jl, jmp *Inst
	for i := range insts {
		switch insts[i].Op {
		case OpJL:
			jl = &insts[i]
		case OpJMP:
			jmp = &insts[i]
		}
	}
	if jl == nil || jmp == nil {
		t.Fatal("missing branches in decoded stream")
	}
	if got := jl.Args[0].(Sym).Addr; got != out.Labels["loop"] {
		t.Errorf("jl target %#x, want %#x", got, out.Labels["loop"])
	}
	if got := jmp.Args[0].(Sym).Addr; got != out.Labels["done"] {
		t.Errorf("jmp target %#x, want %#x", got, out.Labels["done"])
	}
}

func TestAssembleErrors(t *testing.T) {
	var u Unit
	u.Label("a")
	u.Label("a")
	if _, err := u.Assemble(0, nil); !errors.Is(err, ErrDuplicateLabel) {
		t.Errorf("duplicate label: %v", err)
	}

	var u2 Unit
	u2.AddOp(OpJMP, 0, Sym{Name: "nowhere"})
	if _, err := u2.Assemble(0, nil); !errors.Is(err, ErrUndefinedLabel) {
		t.Errorf("undefined label: %v", err)
	}

	var u3 Unit
	u3.AddOp(OpCALL, 0, Sym{Name: "memcpy"})
	if _, err := u3.Assemble(0x1000, map[string]uint64{"memcpy": 0x5000}); err != nil {
		t.Errorf("extern resolution failed: %v", err)
	}
}

func TestAssembleDoesNotMutateUnit(t *testing.T) {
	var u Unit
	u.AddOp(OpCALL, 0, Sym{Name: "f"})
	u.Label("f")
	u.AddOp(OpRET, 0)
	if _, err := u.Assemble(0x1000, nil); err != nil {
		t.Fatal(err)
	}
	// Reassembling at a different base must still resolve from scratch.
	out2, err := u.Assemble(0x2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Labels["f"] != 0x2005 {
		t.Errorf("f = %#x, want %#x", out2.Labels["f"], 0x2005)
	}
}

func TestPrintPaperExamples(t *testing.T) {
	tests := []struct {
		in   Inst
		want string
	}{
		// Examples straight from the paper's Figure 2 / Table II.
		{NewInst(OpMOV, 8, MemD(RSP, 0xa8), Imm{0}), "movq $0x0,0xa8(%rsp)"},
		{NewInst(OpMOV, 4, MemD(RSP, 0xb8), Imm{0x100}), "movl $0x100,0xb8(%rsp)"},
		{NewInst(OpMOV, 1, MemD(RSP, 0xc0), Imm{0}), "movb $0x0,0xc0(%rsp)"},
		{NewInst(OpMOV, 8, MemD(RSP, 0xb0), R(RAX)), "mov %rax,0xb0(%rsp)"},
		{NewInst(OpLEA, 8, R(RAX), MemD(RSP, 0x220)), "lea 0x220(%rsp),%rax"},
		{NewInst(OpLEA, 8, R(R15), MemSIB(RDI, RSI, 1, 0)), "lea (%rdi,%rsi,1),%r15"},
		{NewInst(OpMOVSXD, 8, R(RSI), R(ESI)), "movslq %esi,%rsi"},
		{NewInst(OpSUB, 8, R(RDX), R(RBP)), "sub %rbp,%rdx"},
		{NewInst(OpMOV, 4, R(ESI), Imm{0x3c}), "mov $0x3c,%esi"},
		{NewInst(OpLEA, 8, R(RAX), MemSIB(RBP, R9, 4, -0x300)), "lea -0x300(%rbp,%r9,4),%rax"},
		{NewInst(OpADD, 8, R(RAX), Imm{-0xD0}), "add $-0xd0,%rax"},
		{NewInst(OpMOVZX, 1, R(EDX), MemD(RAX, 8)), "movzbl 0x8(%rax),%edx"},
		{NewInst(OpFLD, 10, MemD(RSP, 0x10)), "fldt 0x10(%rsp)"},
		{NewInst(OpCVTSI2SD, 4, R(XMM0), MemD(RBP, -8)), "cvtsi2sdl -0x8(%rbp),%xmm0"},
		{NewInst(OpRET, 0), "retq"},
		{NewInst(OpINC, 4, MemD(RBP, -4)), "incl -0x4(%rbp)"},
		{NewInst(OpTEST, 4, R(EAX), R(EAX)), "test %eax,%eax"},
		{NewInst(OpSETE, 1, R(AL)), "sete %al"},
	}
	for _, tt := range tests {
		in := tt.in
		if got := Print(&in); got != tt.want {
			t.Errorf("Print = %q, want %q", got, tt.want)
		}
	}
}

func TestPrintBranchWithSymbol(t *testing.T) {
	in := NewInst(OpCALL, 0, Sym{Name: "memchr@plt", Addr: 0x4044d0, Resolved: true})
	if got := Print(&in); got != "callq 4044d0 <memchr@plt>" {
		t.Errorf("Print = %q", got)
	}
	in2 := NewInst(OpJE, 0, Sym{Addr: 0x4179f5, Resolved: true})
	if got := Print(&in2); got != "je 4179f5" {
		t.Errorf("Print = %q", got)
	}
	in3 := NewInst(OpJMP, 0, Sym{Name: "loop"})
	if got := Print(&in3); got != "jmp loop" {
		t.Errorf("Print = %q", got)
	}
}

func TestInstAccessors(t *testing.T) {
	in := NewInst(OpMOV, 4, R(EAX), MemD(RBP, -4))
	if in.Dst() == nil || in.Src() == nil {
		t.Fatal("accessors returned nil")
	}
	m, ok := in.MemArg()
	if !ok || m.Base != RBP || m.Disp != -4 {
		t.Errorf("MemArg = %+v, %v", m, ok)
	}
	empty := NewInst(OpRET, 0)
	if empty.Dst() != nil || empty.Src() != nil {
		t.Error("empty accessors should be nil")
	}
	if _, ok := empty.MemArg(); ok {
		t.Error("MemArg on ret")
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpJMP.IsJump() || !OpJNS.IsJump() || OpCALL.IsJump() {
		t.Error("IsJump misclassifies")
	}
	if OpJMP.IsCondJump() || !OpJE.IsCondJump() {
		t.Error("IsCondJump misclassifies")
	}
	if !OpSETAE.IsSET() || !OpSETNS.IsSET() || OpMOV.IsSET() {
		t.Error("IsSET misclassifies")
	}
	if !OpMOVSS.IsSSE() || !OpXORPS.IsSSE() || OpFLD.IsSSE() {
		t.Error("IsSSE misclassifies")
	}
	if !OpFLD.IsX87() || !OpFUCOMIP.IsX87() || OpMOV.IsX87() {
		t.Error("IsX87 misclassifies")
	}
}

func TestOperandStrings(t *testing.T) {
	tests := []struct {
		op   Operand
		want string
	}{
		{Imm{0x100}, "0x100"},
		{Imm{-0xd0}, "-0xd0"},
		{R(RAX), "%rax"},
		{MemD(RSP, 0x20), "0x20(%rsp)"},
		{MemD(RBP, -8), "-0x8(%rbp)"},
		{MemD(RAX, 0), "(%rax)"},
		{MemSIB(RDI, RSI, 1, 0), "(%rdi,%rsi,1)"},
		{MemSIB(RBP, R9, 4, -0x300), "-0x300(%rbp,%r9,4)"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

// TestDecodeRandomBytesNeverPanics feeds the decoder arbitrary bytes: it
// must either decode something or return an error, never panic, and must
// always make progress on valid decodes.
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	buf := make([]byte, 32)
	for i := 0; i < 50000; i++ {
		r.Read(buf)
		in, err := Decode(buf, 0x400000)
		if err != nil {
			continue
		}
		if in.Len <= 0 || in.Len > len(buf) {
			t.Fatalf("decoded length %d from % x", in.Len, buf)
		}
		// Whatever decoded must print without panicking.
		_ = Print(&in)
	}
}

// TestDecodePrefixFlood exercises long prefix runs.
func TestDecodePrefixFlood(t *testing.T) {
	data := bytes.Repeat([]byte{0x66}, 30)
	if _, err := Decode(data, 0); err == nil {
		t.Error("prefix-only stream should not decode")
	}
	// Prefix then a valid opcode.
	ok := append([]byte{0x66}, 0x90)
	in, err := Decode(ok, 0)
	if err != nil || in.Op != OpNOP {
		t.Errorf("66 90: %v %v", in.Op, err)
	}
}

// TestMnemonicsComplete ensures every op has a name and every encodable op
// in the enum range is distinct.
func TestMnemonicsComplete(t *testing.T) {
	seen := map[string]Op{}
	for op := OpMOV; op < opMax; op++ {
		name := op.String()
		if name == "" || len(name) > 12 {
			t.Errorf("op %d: bad name %q", int(op), name)
		}
		if name[0] == 'O' && name[1] == 'p' {
			t.Errorf("op %d: missing name entry (%s)", int(op), name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("ops %d and %d share name %q", int(prev), int(op), name)
		}
		seen[name] = op
	}
}

// TestEncodePackedSSE pins the packed-single encodings the JIT GEMM
// microkernel emits (movups/addps/mulps/shufps) to their canonical bytes,
// then round-trips each through the decoder.
func TestEncodePackedSSE(t *testing.T) {
	tests := []struct {
		in   Inst
		want []byte
	}{
		{NewInst(OpMOVUPS, 16, R(XMM0), MemD(RAX64, 0)), []byte{0x0F, 0x10, 0x00}},
		{NewInst(OpMOVUPS, 16, MemD(RAX64, 0), R(XMM0)), []byte{0x0F, 0x11, 0x00}},
		{NewInst(OpMOVUPS, 16, R(XMM8), MemD(RAX64, 0)), []byte{0x44, 0x0F, 0x10, 0x00}},
		{NewInst(OpMOVUPS, 16, R(XMM1), MemD(RSI64, 0x40)), []byte{0x0F, 0x10, 0x4E, 0x40}},
		{NewInst(OpMOVUPS, 16, R(XMM2), R(XMM3)), []byte{0x0F, 0x10, 0xD3}},
		{NewInst(OpADDPS, 16, R(XMM0), R(XMM1)), []byte{0x0F, 0x58, 0xC1}},
		{NewInst(OpADDPS, 16, R(XMM4), MemD(RCX64, -8)), []byte{0x0F, 0x58, 0x61, 0xF8}},
		{NewInst(OpMULPS, 16, R(XMM2), MemD(RBX64, 0x10)), []byte{0x0F, 0x59, 0x53, 0x10}},
		{NewInst(OpMULPS, 16, R(XMM9), R(XMM10)), []byte{0x45, 0x0F, 0x59, 0xCA}},
		{NewInst(OpMAXPS, 16, R(XMM1), R(XMM0)), []byte{0x0F, 0x5F, 0xC8}},
		{NewInst(OpMAXPS, 16, R(XMM6), MemD(RDI64, 0x20)), []byte{0x0F, 0x5F, 0x77, 0x20}},
		{NewInst(OpSHUFPS, 16, R(XMM0), R(XMM1), Imm{Value: 0}), []byte{0x0F, 0xC6, 0xC1, 0x00}},
		{NewInst(OpSHUFPS, 16, R(XMM5), R(XMM5), Imm{Value: 0xFF}), []byte{0x0F, 0xC6, 0xED, 0xFF}},
	}
	for _, tc := range tests {
		code, err := Encode(tc.in)
		if err != nil {
			t.Fatalf("%s: encode: %v", Print(&tc.in), err)
		}
		if !bytes.Equal(code, tc.want) {
			t.Errorf("%s: encoded % x, want % x", Print(&tc.in), code, tc.want)
		}
		out, err := Decode(code, 0x400000)
		if err != nil {
			t.Fatalf("%s (% x): decode: %v", Print(&tc.in), code, err)
		}
		if !out.Equal(&tc.in) {
			t.Errorf("%s round-tripped as %s", Print(&tc.in), Print(&out))
		}
	}
	// shufps rejects an out-of-range selector instead of truncating it.
	bad := NewInst(OpSHUFPS, 16, R(XMM0), R(XMM1), Imm{Value: 256})
	if _, err := Encode(bad); !errors.Is(err, ErrImmTooLarge) {
		t.Errorf("shufps $256: err %v, want ErrImmTooLarge", err)
	}
}

func TestEncodeVEX(t *testing.T) {
	tests := []struct {
		in   Inst
		want []byte
	}{
		// Two-byte C5 form: map 0F, no X/B extension.
		{NewInst(OpVMOVUPS, 32, R(YMM0), MemD(RAX64, 0)), []byte{0xC5, 0xFC, 0x10, 0x00}},
		{NewInst(OpVMOVUPS, 32, MemD(RAX64, 0), R(YMM0)), []byte{0xC5, 0xFC, 0x11, 0x00}},
		{NewInst(OpVMOVUPS, 32, R(YMM8), MemD(RSI64, 0x40)), []byte{0xC5, 0x7C, 0x10, 0x46, 0x40}},
		{NewInst(OpVMOVUPS, 16, R(XMM1), MemD(RAX64, 0)), []byte{0xC5, 0xF8, 0x10, 0x08}},
		{NewInst(OpVADDPS, 32, R(YMM0), R(YMM1), R(YMM2)), []byte{0xC5, 0xF4, 0x58, 0xC2}},
		{NewInst(OpVXORPS, 32, R(YMM4), R(YMM4), R(YMM4)), []byte{0xC5, 0xDC, 0x57, 0xE4}},
		{NewInst(OpVZEROUPPER, 0), []byte{0xC5, 0xF8, 0x77}},
		// Three-byte C4 form: B extension or the 0F38 map.
		{NewInst(OpVMOVUPS, 32, R(YMM1), MemD(R8, 0)), []byte{0xC4, 0xC1, 0x7C, 0x10, 0x08}},
		{NewInst(OpVMULPS, 32, R(YMM10), R(YMM8), R(YMM9)), []byte{0xC4, 0x41, 0x3C, 0x59, 0xD1}},
		{NewInst(OpVBROADCASTSS, 32, R(YMM10), MemD(RDI64, 4)), []byte{0xC4, 0x62, 0x7D, 0x18, 0x57, 0x04}},
		{NewInst(OpVBROADCASTSS, 16, R(XMM2), MemD(RDI64, 0)), []byte{0xC4, 0xE2, 0x79, 0x18, 0x17}},
		// Feature-detection stubs.
		{NewInst(OpCPUID, 0), []byte{0x0F, 0xA2}},
		{NewInst(OpXGETBV, 0), []byte{0x0F, 0x01, 0xD0}},
	}
	for _, tc := range tests {
		code, err := Encode(tc.in)
		if err != nil {
			t.Fatalf("%s: encode: %v", Print(&tc.in), err)
		}
		if !bytes.Equal(code, tc.want) {
			t.Errorf("%s: encoded % x, want % x", Print(&tc.in), code, tc.want)
		}
		out, err := Decode(code, 0x400000)
		if err != nil {
			t.Fatalf("%s (% x): decode: %v", Print(&tc.in), code, err)
		}
		if !out.Equal(&tc.in) {
			t.Errorf("%s round-tripped as %s", Print(&tc.in), Print(&out))
		}
	}
	// The register-source vbroadcastss form is AVX2; the encoder targets AVX1.
	bad := NewInst(OpVBROADCASTSS, 32, R(YMM0), R(XMM1))
	if _, err := Encode(bad); !errors.Is(err, ErrBadOperands) {
		t.Errorf("vbroadcastss reg source: err %v, want ErrBadOperands", err)
	}
	// VEX after a legacy prefix is #UD.
	if _, err := Decode([]byte{0x66, 0xC5, 0xFC, 0x10, 0x00}, 0); !errors.Is(err, ErrBadEncoding) {
		t.Errorf("66 c5: err %v, want ErrBadEncoding", err)
	}
}

// TestEncodeEVEX pins the 512-bit forms of the AVX-512 GEMM kernel to the
// bytes Go's own assembler emits for them, then round-trips each through
// the decoder. The displacement rows check disp8*N: a one-byte
// displacement counts 64-byte units for zmm loads and stores but 4-byte
// units for the vbroadcastss scalar, and anything else takes disp32.
func TestEncodeEVEX(t *testing.T) {
	tests := []struct {
		in   Inst
		want []byte
	}{
		{NewInst(OpVMOVUPS, 64, R(ZMM0), MemD(RAX64, 0)), []byte{0x62, 0xF1, 0x7C, 0x48, 0x10, 0x00}},
		{NewInst(OpVMOVUPS, 64, MemD(RAX64, 0), R(ZMM0)), []byte{0x62, 0xF1, 0x7C, 0x48, 0x11, 0x00}},
		{NewInst(OpVMOVUPS, 64, MemD(RDX64, 0), R(ZMM3)), []byte{0x62, 0xF1, 0x7C, 0x48, 0x11, 0x1A}},
		{NewInst(OpVMOVUPS, 64, R(ZMM4), MemD(RSI64, 64)), []byte{0x62, 0xF1, 0x7C, 0x48, 0x10, 0x66, 0x01}},
		{NewInst(OpVMOVUPS, 64, R(ZMM4), MemD(RSI64, -64)), []byte{0x62, 0xF1, 0x7C, 0x48, 0x10, 0x66, 0xFF}},
		{NewInst(OpVMOVUPS, 64, R(ZMM8), MemD(RSI64, 128)), []byte{0x62, 0x71, 0x7C, 0x48, 0x10, 0x46, 0x02}},
		{NewInst(OpVMOVUPS, 64, R(ZMM4), MemD(RSI64, 4)), []byte{0x62, 0xF1, 0x7C, 0x48, 0x10, 0xA6, 0x04, 0x00, 0x00, 0x00}},
		{NewInst(OpVMOVUPS, 64, R(ZMM4), MemD(RSI64, 8192)), []byte{0x62, 0xF1, 0x7C, 0x48, 0x10, 0xA6, 0x00, 0x20, 0x00, 0x00}},
		{NewInst(OpVMOVUPS, 64, R(ZMM1), MemD(R8, 0)), []byte{0x62, 0xD1, 0x7C, 0x48, 0x10, 0x08}},
		{NewInst(OpVMOVUPS, 64, MemD(R13, 64), R(ZMM12)), []byte{0x62, 0x51, 0x7C, 0x48, 0x11, 0x65, 0x01}},
		{NewInst(OpVMOVUPS, 64, R(ZMM2), MemD(RSP64, 0)), []byte{0x62, 0xF1, 0x7C, 0x48, 0x10, 0x14, 0x24}},
		{NewInst(OpVMOVUPS, 64, R(ZMM2), MemD(RBP64, 0)), []byte{0x62, 0xF1, 0x7C, 0x48, 0x10, 0x55, 0x00}},
		{NewInst(OpVMOVUPS, 64, R(ZMM2), MemSIB(R12, R9, 2, 64)), []byte{0x62, 0x91, 0x7C, 0x48, 0x10, 0x54, 0x4C, 0x01}},
		{NewInst(OpVBROADCASTSS, 64, R(ZMM5), MemD(RDI64, 0)), []byte{0x62, 0xF2, 0x7D, 0x48, 0x18, 0x2F}},
		{NewInst(OpVBROADCASTSS, 64, R(ZMM5), MemD(RDI64, 4)), []byte{0x62, 0xF2, 0x7D, 0x48, 0x18, 0x6F, 0x01}},
		{NewInst(OpVBROADCASTSS, 64, R(ZMM5), MemD(RDI64, 6)), []byte{0x62, 0xF2, 0x7D, 0x48, 0x18, 0xAF, 0x06, 0x00, 0x00, 0x00}},
		{NewInst(OpVBROADCASTSS, 64, R(ZMM5), MemD(RDI64, 512)), []byte{0x62, 0xF2, 0x7D, 0x48, 0x18, 0xAF, 0x00, 0x02, 0x00, 0x00}},
		{NewInst(OpVBROADCASTSS, 64, R(ZMM5), MemSIB(RDI64, R9, 1, 8)), []byte{0x62, 0xB2, 0x7D, 0x48, 0x18, 0x6C, 0x0F, 0x02}},
		{NewInst(OpVBROADCASTSS, 64, R(ZMM5), MemSIB(RDI64, R9, 2, 4)), []byte{0x62, 0xB2, 0x7D, 0x48, 0x18, 0x6C, 0x4F, 0x01}},
		{NewInst(OpVBROADCASTSS, 64, R(ZMM5), MemSIB(RDI64, R10, 1, 508)), []byte{0x62, 0xB2, 0x7D, 0x48, 0x18, 0x6C, 0x17, 0x7F}},
		{NewInst(OpVBROADCASTSS, 64, R(ZMM13), MemD(R11, 0)), []byte{0x62, 0x52, 0x7D, 0x48, 0x18, 0x2B}},
		{NewInst(OpVMULPS, 64, R(ZMM5), R(ZMM5), R(ZMM4)), []byte{0x62, 0xF1, 0x54, 0x48, 0x59, 0xEC}},
		{NewInst(OpVMULPS, 64, R(ZMM11), R(ZMM10), R(ZMM9)), []byte{0x62, 0x51, 0x2C, 0x48, 0x59, 0xD9}},
		{NewInst(OpVMULPS, 64, R(ZMM5), R(ZMM4), MemD(RSI64, 64)), []byte{0x62, 0xF1, 0x5C, 0x48, 0x59, 0x6E, 0x01}},
		{NewInst(OpVADDPS, 64, R(ZMM0), R(ZMM0), R(ZMM5)), []byte{0x62, 0xF1, 0x7C, 0x48, 0x58, 0xC5}},
		{NewInst(OpVADDPS, 64, R(ZMM12), R(ZMM13), R(ZMM14)), []byte{0x62, 0x51, 0x14, 0x48, 0x58, 0xE6}},
		{NewInst(OpVADDPS, 64, R(ZMM2), R(ZMM1), MemD(RDX64, 0)), []byte{0x62, 0xF1, 0x74, 0x48, 0x58, 0x12}},
	}
	for _, tc := range tests {
		code, err := Encode(tc.in)
		if err != nil {
			t.Fatalf("%s: encode: %v", Print(&tc.in), err)
		}
		if !bytes.Equal(code, tc.want) {
			t.Errorf("%s: encoded % x, want % x", Print(&tc.in), code, tc.want)
		}
		out, err := Decode(code, 0x400000)
		if err != nil {
			t.Fatalf("%s (% x): decode: %v", Print(&tc.in), code, err)
		}
		if !out.Equal(&tc.in) || out.Len != len(code) {
			t.Errorf("%s round-tripped as %s (len %d)", Print(&tc.in), Print(&out), out.Len)
		}
	}
	if got := Print(&tests[3].in); got != "vmovups 0x40(%rsi),%zmm4" {
		t.Errorf("print = %q", got)
	}

	for _, bad := range []Inst{
		NewInst(OpVXORPS, 64, R(ZMM0), R(ZMM0), R(ZMM0)),        // AVX512DQ
		NewInst(OpVADDPS, 64, R(ZMM0), R(YMM1), R(ZMM2)),        // mixed widths
		NewInst(OpVMOVUPS, 32, R(YMM0), R(ZMM1)),                // mixed widths
		NewInst(OpVBROADCASTSS, 64, R(ZMM0), R(XMM1)),           // register source
		NewInst(OpVMULPS, 64, R(ZMM0), MemD(RAX64, 0), R(ZMM1)), // memory in vvvv
	} {
		if _, err := Encode(bad); !errors.Is(err, ErrBadOperands) {
			t.Errorf("%s: err %v, want ErrBadOperands", Print(&bad), err)
		}
	}

	// The decoder takes only the forms above: opmask, zeroing, 128/256-bit
	// length, embedded broadcast, W, zmm16+ and a legacy prefix are errors.
	for _, code := range [][]byte{
		{0x62, 0xF1, 0x7C, 0x49, 0x10, 0x00},       // {k1}
		{0x62, 0xF1, 0x7C, 0xC8, 0x10, 0x00},       // {z}
		{0x62, 0xF1, 0x7C, 0x28, 0x10, 0x00},       // 256-bit
		{0x62, 0xF1, 0x7C, 0x58, 0x59, 0x00},       // {1to16}
		{0x62, 0xF1, 0xFC, 0x48, 0x10, 0x00},       // W1
		{0x62, 0xE1, 0x7C, 0x48, 0x10, 0x00},       // zmm16 in reg
		{0x62, 0xF1, 0x7C, 0x40, 0x58, 0xC5},       // zmm16+ in vvvv
		{0x62, 0xB1, 0x7C, 0x48, 0x58, 0xC5},       // zmm16+ in r/m
		{0x62, 0xF1, 0x78, 0x48, 0x10, 0x00},       // fixed P1 bit clear
		{0x62, 0xF1, 0x74, 0x48, 0x10, 0x00},       // vmovups with vvvv
		{0x62, 0xF2, 0x7D, 0x48, 0x18, 0xC1},       // vbroadcastss register source
		{0x62, 0xF1, 0x7C, 0x48, 0x57, 0xC0},       // vxorps (AVX512DQ)
		{0x66, 0x62, 0xF1, 0x7C, 0x48, 0x10, 0x00}, // legacy prefix
		{0x62, 0xF1, 0x7C},                         // truncated
	} {
		if in, err := Decode(code, 0); err == nil {
			t.Errorf("% x decoded as %s, want an error", code, Print(&in))
		}
	}
}
