package asm

import "fmt"

// VEX encoding for the AVX subset the JIT uses. Two forms exist: the
// two-byte C5 prefix (map 0F, no X/B/W extension bits) and the general
// three-byte C4 prefix. Register-extension bits (R, X, B) and the vvvv
// extra-operand field are stored inverted; L selects 128/256-bit width.
//
//	C5 [R̄·v̄v̄v̄v̄·L·pp]
//	C4 [R̄·X̄·B̄·mmmmm] [W·v̄v̄v̄v̄·L·pp]
//
// mmmmm: 1 = 0F, 2 = 0F38. pp: 0 = none, 1 = 66, 2 = F3, 3 = F2.

// vexSpec maps a VEX mnemonic to opcode map, implied prefix and opcode.
type vexSpec struct {
	mmap byte // opcode map: 1 = 0F, 2 = 0F38
	pp   byte // implied mandatory prefix bits
	op   byte
	nds  bool // three-operand form: dst, src1 (in vvvv), src2 (r/m)
}

var vexSpecs = map[Op]vexSpec{
	OpVMOVUPS:      {mmap: 1, pp: 0, op: 0x10},
	OpVADDPS:       {mmap: 1, pp: 0, op: 0x58, nds: true},
	OpVMULPS:       {mmap: 1, pp: 0, op: 0x59, nds: true},
	OpVXORPS:       {mmap: 1, pp: 0, op: 0x57, nds: true},
	OpVBROADCASTSS: {mmap: 2, pp: 1, op: 0x18},
}

func isVecReg(r Reg) bool { return r.IsXMM() || r.IsYMM() || r.IsZMM() }

func encodeVEX(e *enc, in Inst) error {
	if in.Op == OpVZEROUPPER {
		e.bytes(0xC5, 0xF8, 0x77)
		return nil
	}
	spec, ok := vexSpecs[in.Op]
	if !ok {
		return ErrUnknownOp
	}
	opcode := spec.op
	var regOp Reg // goes in the ModRM reg field
	vvvv := 0     // hardware number of the NDS operand (encoded inverted)
	var rm Operand

	switch {
	case spec.nds:
		if len(in.Args) != 3 {
			return ErrBadOperands
		}
		d, ok := in.Args[0].(RegArg)
		s1, ok2 := in.Args[1].(RegArg)
		if !ok || !ok2 || !isVecReg(d.Reg) || !isVecReg(s1.Reg) {
			return ErrBadOperands
		}
		regOp, vvvv, rm = d.Reg, s1.Reg.Num(), in.Args[2]
	case in.Op == OpVMOVUPS:
		if d, ok := in.Dst().(RegArg); ok && isVecReg(d.Reg) {
			regOp, rm = d.Reg, in.Src()
			break
		}
		s, ok := in.Src().(RegArg)
		if !ok || !isVecReg(s.Reg) {
			return ErrBadOperands
		}
		if _, ok := in.Dst().(Mem); !ok {
			return ErrBadOperands
		}
		opcode = 0x11 // store form
		regOp, rm = s.Reg, in.Dst()
	case in.Op == OpVBROADCASTSS:
		d, ok := in.Dst().(RegArg)
		if !ok || !isVecReg(d.Reg) {
			return ErrBadOperands
		}
		if _, ok := in.Src().(Mem); !ok {
			// The register-source form is AVX2; the JIT targets AVX1.
			return fmt.Errorf("vbroadcastss needs a memory source: %w", ErrBadOperands)
		}
		regOp, rm = d.Reg, in.Src()
	default:
		return ErrUnknownOp
	}

	// A zmm operand selects the EVEX form, which every vector operand
	// must then share.
	for _, a := range in.Args {
		if r, ok := a.(RegArg); ok && isVecReg(r.Reg) && r.Reg.IsZMM() != regOp.IsZMM() {
			return fmt.Errorf("mixed zmm and xmm/ymm operands: %w", ErrBadOperands)
		}
	}
	if regOp.IsZMM() {
		return encodeEVEX(e, in.Op, spec, opcode, regOp, vvvv, rm)
	}

	var rex rexParts
	t, err := buildModRM(regOp.Num(), rm, &rex)
	if err != nil {
		return err
	}
	var l byte
	if regOp.IsYMM() {
		l = 1 << 2
	}
	// vvvv, R, X and B are stored inverted; W is always 0 for these ops.
	b2 := byte(^vvvv&0xF)<<3 | l | spec.pp
	if spec.mmap == 1 && !rex.x && !rex.b {
		if !rex.r {
			b2 |= 0x80
		}
		e.bytes(0xC5, b2)
	} else {
		b1 := spec.mmap
		if !rex.r {
			b1 |= 0x80
		}
		if !rex.x {
			b1 |= 0x40
		}
		if !rex.b {
			b1 |= 0x20
		}
		e.bytes(0xC4, b1, b2)
	}
	e.byte(opcode)
	e.byte(t.modrm)
	if t.hasSIB {
		e.byte(t.sib)
	}
	e.bytes(t.disp...)
	return nil
}

// EVEX encoding for the AVX-512 forms the JIT's 512-bit kernel uses:
// vmovups, vbroadcastss (memory source), vmulps and vaddps on zmm0-15,
// without opmask, zeroing, embedded broadcast or rounding control. Like
// VEX, the payload stores R, X, B, R', vvvv and V' inverted:
//
//	62 [R̄·X̄·B̄·R̄'·0·0·mm] [W·v̄v̄v̄v̄·1·pp] [z·L'L·b·V̄'·aaa]
//
// L'L = 2 selects 512 bits. A one-byte displacement counts units of N
// bytes, the size of the memory operand: 64 for a full zmm load or store,
// 4 for the vbroadcastss scalar. In 64-bit mode the 0x62 escape is
// otherwise invalid (it was BOUND), so it never shadows a legacy opcode.
func encodeEVEX(e *enc, op Op, spec vexSpec, opcode byte, regOp Reg, vvvv int, rm Operand) error {
	if op == OpVXORPS {
		// The 512-bit vxorps is AVX512DQ. A VEX.128 vxorps zeroes the
		// whole zmm register and needs only AVX.
		return fmt.Errorf("vxorps on zmm needs AVX512DQ: %w", ErrBadOperands)
	}
	n := int32(64)
	if op == OpVBROADCASTSS {
		n = 4
	}
	var rex rexParts
	t, err := buildModRMScaled(regOp.Num(), rm, &rex, n)
	if err != nil {
		return err
	}
	p0 := 0x10 | spec.mmap // R' set: the reg operand is below zmm16
	if !rex.r {
		p0 |= 0x80
	}
	if !rex.x {
		p0 |= 0x40
	}
	if !rex.b {
		p0 |= 0x20
	}
	p1 := byte(^vvvv&0xF)<<3 | 0x04 | spec.pp
	const p2 = 0x48 // L'L = 512 bits; V' set: vvvv is below zmm16
	e.bytes(0x62, p0, p1, p2, opcode, t.modrm)
	if t.hasSIB {
		e.byte(t.sib)
	}
	e.bytes(t.disp...)
	return nil
}
