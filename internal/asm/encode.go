package asm

import (
	"errors"
	"fmt"
	"math"
)

// Encoding errors.
var (
	ErrBadOperands  = errors.New("asm: operand combination not encodable")
	ErrImmTooLarge  = errors.New("asm: immediate does not fit encoding")
	ErrHighByteREX  = errors.New("asm: high-byte register requires REX-free encoding")
	ErrBadScale     = errors.New("asm: memory scale must be 1, 2, 4 or 8")
	ErrRSPIndex     = errors.New("asm: rsp cannot be an index register")
	ErrUnresolved   = errors.New("asm: unresolved symbol operand")
	ErrUnknownOp    = errors.New("asm: unknown or unencodable op")
	ErrBadWidth     = errors.New("asm: unsupported operand width")
	ErrTruncated    = errors.New("asm: truncated instruction")
	ErrBadEncoding  = errors.New("asm: invalid or unsupported encoding")
	ErrJumpTooFar   = errors.New("asm: jump displacement does not fit rel32")
	ErrNeedInstAddr = errors.New("asm: relative branch needs Inst.Addr set")
)

// enc accumulates one instruction's bytes.
type enc struct {
	buf []byte
}

func (e *enc) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *enc) bytes(bs ...byte) { e.buf = append(e.buf, bs...) }

func (e *enc) imm(v int64, size int) {
	for i := 0; i < size; i++ {
		e.byte(byte(v >> (8 * i)))
	}
}

// rexParts captures the REX bits an encoding needs.
type rexParts struct {
	w, r, x, b bool
	force      bool // SPL/BPL/SIL/DIL need a REX byte even with no bits set
	forbid     bool // AH/CH/DH/BH forbid a REX byte
}

func (p *rexParts) regBit(num int, bit *bool) {
	if num >= 8 {
		*bit = true
	}
}

func (p rexParts) emit(e *enc) error {
	any := p.w || p.r || p.x || p.b || p.force
	if any && p.forbid {
		return ErrHighByteREX
	}
	if !any {
		return nil
	}
	rex := byte(0x40)
	if p.w {
		rex |= 8
	}
	if p.r {
		rex |= 4
	}
	if p.x {
		rex |= 2
	}
	if p.b {
		rex |= 1
	}
	e.byte(rex)
	return nil
}

func (p *rexParts) note8bit(r Reg) {
	if r.Width() != 1 {
		return
	}
	if r.IsHighByte() {
		p.forbid = true
	} else if n := r.Num(); n >= 4 && n <= 7 {
		p.force = true
	}
}

// modRMTail holds the ModRM byte, optional SIB and displacement bytes.
type modRMTail struct {
	modrm  byte
	hasSIB bool
	sib    byte
	disp   []byte
	ripRel bool // displacement is RIP-relative (not used by our codegen)
}

// buildModRM computes ModRM/SIB/disp for reg field `reg` (0..7 after REX.R
// extraction) against an r/m operand.
func buildModRM(regNum int, rm Operand, rex *rexParts) (modRMTail, error) {
	return buildModRMScaled(regNum, rm, rex, 1)
}

// buildModRMScaled is buildModRM with a one-byte displacement counted in
// units of n bytes (EVEX disp8*N compression; n is 1 for every legacy and
// VEX encoding). A displacement that is not a multiple of n, or whose
// quotient overflows int8, takes the four-byte form.
func buildModRMScaled(regNum int, rm Operand, rex *rexParts, n int32) (modRMTail, error) {
	var t modRMTail
	rex.regBit(regNum, &rex.r)
	regBits := byte(regNum&7) << 3

	switch x := rm.(type) {
	case RegArg:
		n := x.Reg.Num()
		rex.regBit(n, &rex.b)
		rex.note8bit(x.Reg)
		t.modrm = 0xC0 | regBits | byte(n&7)
		return t, nil
	case Mem:
		return buildMemModRM(regBits, x, rex, n)
	default:
		return t, fmt.Errorf("r/m operand %T: %w", rm, ErrBadOperands)
	}
}

func buildMemModRM(regBits byte, m Mem, rex *rexParts, n int32) (modRMTail, error) {
	var t modRMTail
	if m.Index != RegNone {
		switch m.Scale {
		case 1, 2, 4, 8:
		default:
			return t, ErrBadScale
		}
		if m.Index == RSP64 {
			return t, ErrRSPIndex
		}
	}

	// RIP-relative: mod=00, rm=101, disp32.
	if m.Base == RIP {
		if m.Index != RegNone {
			return t, fmt.Errorf("rip-relative with index: %w", ErrBadOperands)
		}
		t.modrm = regBits | 0x05
		t.disp = le32(m.Disp)
		t.ripRel = true
		return t, nil
	}

	// Absolute (no base): mod=00, rm=100, SIB base=101, index per operand.
	if m.Base == RegNone {
		t.modrm = regBits | 0x04
		t.hasSIB = true
		idxBits := byte(0x20) // index=100 means none
		if m.Index != RegNone {
			n := m.Index.Num()
			rex.regBit(n, &rex.x)
			idxBits = byte(n&7) << 3
		}
		t.sib = scaleBits(m.Scale) | idxBits | 0x05
		t.disp = le32(m.Disp)
		return t, nil
	}

	baseNum := m.Base.Num()
	rex.regBit(baseNum, &rex.b)
	needSIB := m.Index != RegNone || baseNum&7 == 4 // rsp/r12 base requires SIB

	var mod byte
	switch {
	case m.Disp == 0 && baseNum&7 != 5: // rbp/r13 cannot use mod=00
		mod = 0x00
	case m.Disp%n == 0 && m.Disp/n >= math.MinInt8 && m.Disp/n <= math.MaxInt8:
		mod = 0x40
		t.disp = []byte{byte(m.Disp / n)}
	default:
		mod = 0x80
		t.disp = le32(m.Disp)
	}

	if needSIB {
		t.modrm = mod | regBits | 0x04
		t.hasSIB = true
		idxBits := byte(0x20)
		if m.Index != RegNone {
			n := m.Index.Num()
			rex.regBit(n, &rex.x)
			idxBits = byte(n&7) << 3
		}
		t.sib = scaleBits(m.Scale) | idxBits | byte(baseNum&7)
	} else {
		t.modrm = mod | regBits | byte(baseNum&7)
	}
	return t, nil
}

func scaleBits(s uint8) byte {
	switch s {
	case 2:
		return 0x40
	case 4:
		return 0x80
	case 8:
		return 0xC0
	default:
		return 0x00
	}
}

func le32(v int32) []byte {
	return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
}

// emitRM writes prefixes, REX, opcode bytes, ModRM, SIB and displacement
// for an instruction addressing r/m with reg field regNum.
//
// mandatory is the SSE mandatory prefix (0x66, 0xF2, 0xF3) or 0; width
// drives the 0x66 operand-size prefix (width 2) and REX.W (width 8, unless
// no66W is set for default-64 ops).
func emitRM(e *enc, mandatory byte, width int, defaultW bool, opcode []byte, regNum int, rm Operand, reg8 Reg) error {
	var rex rexParts
	if width == 8 && !defaultW {
		rex.w = true
	}
	rex.note8bit(reg8)
	t, err := buildModRM(regNum, rm, &rex)
	if err != nil {
		return err
	}
	if mandatory != 0 {
		e.byte(mandatory)
	}
	if width == 2 {
		e.byte(0x66)
	}
	if err := rex.emit(e); err != nil {
		return err
	}
	e.bytes(opcode...)
	e.byte(t.modrm)
	if t.hasSIB {
		e.byte(t.sib)
	}
	e.bytes(t.disp...)
	return nil
}

// widthOf infers the operand width of an instruction from its register
// operands, falling back to in.Width.
func widthOf(in *Inst) (int, error) {
	for _, a := range in.Args {
		if r, ok := a.(RegArg); ok && r.Reg.IsGPR() {
			return r.Reg.Width(), nil
		}
	}
	switch in.Width {
	case 1, 2, 4, 8:
		return in.Width, nil
	}
	return 0, fmt.Errorf("width %d: %w", in.Width, ErrBadWidth)
}

func fitsInt8(v int64) bool  { return v >= math.MinInt8 && v <= math.MaxInt8 }
func fitsInt32(v int64) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// aluSpec describes the classic ALU encoding family.
type aluSpec struct {
	base  byte // opcode for r/m8, r8
	digit int  // /digit for the imm group 80/81/83
}

var aluSpecs = map[Op]aluSpec{
	OpADD: {0x00, 0},
	OpOR:  {0x08, 1},
	OpADC: {0x10, 2},
	OpSBB: {0x18, 3},
	OpAND: {0x20, 4},
	OpSUB: {0x28, 5},
	OpXOR: {0x30, 6},
	OpCMP: {0x38, 7},
}

var condCode = map[Op]byte{
	OpJE: 0x4, OpJNE: 0x5, OpJL: 0xC, OpJLE: 0xE, OpJG: 0xF, OpJGE: 0xD,
	OpJB: 0x2, OpJBE: 0x6, OpJA: 0x7, OpJAE: 0x3, OpJS: 0x8, OpJNS: 0x9,
	OpSETE: 0x4, OpSETNE: 0x5, OpSETL: 0xC, OpSETLE: 0xE, OpSETG: 0xF,
	OpSETGE: 0xD, OpSETB: 0x2, OpSETBE: 0x6, OpSETA: 0x7, OpSETAE: 0x3,
	OpSETS: 0x8, OpSETNS: 0x9,
	OpCMOVE: 0x4, OpCMOVNE: 0x5, OpCMOVL: 0xC, OpCMOVLE: 0xE, OpCMOVG: 0xF,
	OpCMOVGE: 0xD, OpCMOVB: 0x2, OpCMOVBE: 0x6, OpCMOVA: 0x7, OpCMOVAE: 0x3,
	OpCMOVS: 0x8, OpCMOVNS: 0x9,
}

// Encode encodes a single instruction to machine bytes. Relative branches
// (CALL/JMP/Jcc with Sym operands) require in.Addr to be set to the
// instruction's virtual address, since x86 encodes them RIP-relative; the
// two-pass Assembler arranges that.
func Encode(in Inst) ([]byte, error) {
	e := &enc{}
	if err := encodeInto(e, in); err != nil {
		return nil, fmt.Errorf("encode %s: %w", in.Op, err)
	}
	return e.buf, nil
}

func encodeInto(e *enc, in Inst) error {
	switch in.Op {
	case OpMOV:
		return encodeMOV(e, in)
	case OpMOVABS:
		return encodeMOVABS(e, in)
	case OpMOVZX, OpMOVSX:
		return encodeMOVX(e, in)
	case OpMOVSXD:
		return encodeMOVSXD(e, in)
	case OpLEA:
		return encodeLEA(e, in)
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpCMP, OpADC, OpSBB:
		return encodeALU(e, in)
	case OpXCHG:
		return encodeXCHG(e, in)
	case OpTEST:
		return encodeTEST(e, in)
	case OpIMUL:
		return encodeIMUL(e, in)
	case OpIDIV, OpDIV, OpNEG, OpNOT:
		return encodeGroup3(e, in)
	case OpCDQ:
		e.byte(0x99)
		return nil
	case OpCQO:
		e.bytes(0x48, 0x99)
		return nil
	case OpSHL, OpSHR, OpSAR, OpROL, OpROR:
		return encodeShift(e, in)
	case OpINC, OpDEC:
		return encodeIncDec(e, in)
	case OpPUSH, OpPOP:
		return encodePushPop(e, in)
	case OpCALL:
		return encodeCALL(e, in)
	case OpRET:
		e.byte(0xC3)
		return nil
	case OpLEAVE:
		e.byte(0xC9)
		return nil
	case OpJMP:
		return encodeJMP(e, in)
	case OpNOP:
		e.byte(0x90)
		return nil
	case OpCPUID:
		e.bytes(0x0F, 0xA2)
		return nil
	case OpXGETBV:
		e.bytes(0x0F, 0x01, 0xD0)
		return nil
	default:
	}
	switch {
	case in.Op.IsCondJump():
		return encodeJcc(e, in)
	case in.Op.IsSET():
		return encodeSETcc(e, in)
	case in.Op.IsCMOV():
		return encodeCMOV(e, in)
	case in.Op.IsSSE():
		return encodeSSE(e, in)
	case in.Op.IsVEX():
		return encodeVEX(e, in)
	case in.Op.IsX87():
		return encodeX87(e, in)
	}
	return ErrUnknownOp
}

func encodeMOV(e *enc, in Inst) error {
	dst, src := in.Dst(), in.Src()
	switch d := dst.(type) {
	case RegArg:
		w := d.Reg.Width()
		switch s := src.(type) {
		case RegArg:
			op := byte(0x88)
			if w != 1 {
				op = 0x89
			}
			return emitRM(e, 0, w, false, []byte{op}, s.Reg.Num(), dst, s.Reg)
		case Mem:
			op := byte(0x8A)
			if w != 1 {
				op = 0x8B
			}
			return emitRM(e, 0, w, false, []byte{op}, d.Reg.Num(), src, d.Reg)
		case Imm:
			return encodeMOVRegImm(e, d.Reg, s.Value)
		}
	case Mem:
		switch s := src.(type) {
		case RegArg:
			w := s.Reg.Width()
			op := byte(0x88)
			if w != 1 {
				op = 0x89
			}
			return emitRM(e, 0, w, false, []byte{op}, s.Reg.Num(), dst, s.Reg)
		case Imm:
			w := in.Width
			if w == 0 {
				return fmt.Errorf("mov imm to mem needs Width: %w", ErrBadWidth)
			}
			return encodeMOVMemImm(e, w, d, s.Value)
		}
	}
	return ErrBadOperands
}

func encodeMOVRegImm(e *enc, r Reg, v int64) error {
	w := r.Width()
	n := r.Num()
	var rex rexParts
	rex.note8bit(r)
	rex.regBit(n, &rex.b)
	switch w {
	case 1:
		if v < math.MinInt8 || v > math.MaxUint8 {
			return ErrImmTooLarge
		}
		if err := rex.emit(e); err != nil {
			return err
		}
		e.byte(0xB0 + byte(n&7))
		e.imm(v, 1)
	case 2:
		if v < math.MinInt16 || v > math.MaxUint16 {
			return ErrImmTooLarge
		}
		e.byte(0x66)
		if err := rex.emit(e); err != nil {
			return err
		}
		e.byte(0xB8 + byte(n&7))
		e.imm(v, 2)
	case 4:
		if v < math.MinInt32 || v > math.MaxUint32 {
			return ErrImmTooLarge
		}
		if err := rex.emit(e); err != nil {
			return err
		}
		e.byte(0xB8 + byte(n&7))
		e.imm(v, 4)
	case 8:
		// Sign-extended 32-bit form C7 /0; use MOVABS for larger values.
		if !fitsInt32(v) {
			return ErrImmTooLarge
		}
		return encodeMOVMemImmLike(e, 8, RegArg{Reg: r}, v)
	default:
		return ErrBadWidth
	}
	return nil
}

func encodeMOVMemImm(e *enc, w int, m Mem, v int64) error {
	return encodeMOVMemImmLike(e, w, m, v)
}

func encodeMOVMemImmLike(e *enc, w int, rm Operand, v int64) error {
	switch w {
	case 1:
		if v < math.MinInt8 || v > math.MaxUint8 {
			return ErrImmTooLarge
		}
		if err := emitRM(e, 0, 1, false, []byte{0xC6}, 0, rm, RegNone); err != nil {
			return err
		}
		e.imm(v, 1)
	case 2:
		if v < math.MinInt16 || v > math.MaxUint16 {
			return ErrImmTooLarge
		}
		if err := emitRM(e, 0, 2, false, []byte{0xC7}, 0, rm, RegNone); err != nil {
			return err
		}
		e.imm(v, 2)
	case 4, 8:
		if !fitsInt32(v) {
			return ErrImmTooLarge
		}
		if err := emitRM(e, 0, w, false, []byte{0xC7}, 0, rm, RegNone); err != nil {
			return err
		}
		e.imm(v, 4)
	default:
		return ErrBadWidth
	}
	return nil
}

func encodeMOVABS(e *enc, in Inst) error {
	d, ok := in.Dst().(RegArg)
	if !ok || d.Reg.Width() != 8 {
		return ErrBadOperands
	}
	s, ok := in.Src().(Imm)
	if !ok {
		return ErrBadOperands
	}
	n := d.Reg.Num()
	rex := rexParts{w: true}
	rex.regBit(n, &rex.b)
	if err := rex.emit(e); err != nil {
		return err
	}
	e.byte(0xB8 + byte(n&7))
	e.imm(s.Value, 8)
	return nil
}

func encodeMOVX(e *enc, in Inst) error {
	d, ok := in.Dst().(RegArg)
	if !ok {
		return ErrBadOperands
	}
	srcW := in.Width
	if s, ok := in.Src().(RegArg); ok {
		srcW = s.Reg.Width()
	}
	var op byte
	switch {
	case in.Op == OpMOVZX && srcW == 1:
		op = 0xB6
	case in.Op == OpMOVZX && srcW == 2:
		op = 0xB7
	case in.Op == OpMOVSX && srcW == 1:
		op = 0xBE
	case in.Op == OpMOVSX && srcW == 2:
		op = 0xBF
	default:
		return fmt.Errorf("movzx/movsx source width %d: %w", srcW, ErrBadWidth)
	}
	var src8 Reg
	if s, ok := in.Src().(RegArg); ok && srcW == 1 {
		src8 = s.Reg
	}
	return emitRM(e, 0, d.Reg.Width(), false, []byte{0x0F, op}, d.Reg.Num(), in.Src(), src8)
}

func encodeMOVSXD(e *enc, in Inst) error {
	d, ok := in.Dst().(RegArg)
	if !ok || d.Reg.Width() != 8 {
		return ErrBadOperands
	}
	return emitRM(e, 0, 8, false, []byte{0x63}, d.Reg.Num(), in.Src(), RegNone)
}

func encodeLEA(e *enc, in Inst) error {
	d, ok := in.Dst().(RegArg)
	if !ok {
		return ErrBadOperands
	}
	if _, ok := in.Src().(Mem); !ok {
		return ErrBadOperands
	}
	return emitRM(e, 0, d.Reg.Width(), false, []byte{0x8D}, d.Reg.Num(), in.Src(), RegNone)
}

func encodeALU(e *enc, in Inst) error {
	spec := aluSpecs[in.Op]
	dst, src := in.Dst(), in.Src()
	switch s := src.(type) {
	case RegArg:
		w := s.Reg.Width()
		op := spec.base
		if w != 1 {
			op++
		}
		return emitRM(e, 0, w, false, []byte{op}, s.Reg.Num(), dst, s.Reg)
	case Mem:
		d, ok := dst.(RegArg)
		if !ok {
			return ErrBadOperands
		}
		w := d.Reg.Width()
		op := spec.base + 2
		if w != 1 {
			op++
		}
		return emitRM(e, 0, w, false, []byte{op}, d.Reg.Num(), src, d.Reg)
	case Imm:
		w := in.Width
		var reg8 Reg
		if d, ok := dst.(RegArg); ok {
			w = d.Reg.Width()
			reg8 = d.Reg
		}
		if w == 0 {
			return fmt.Errorf("ALU imm to mem needs Width: %w", ErrBadWidth)
		}
		v := s.Value
		switch {
		case w == 1:
			if v < math.MinInt8 || v > math.MaxUint8 {
				return ErrImmTooLarge
			}
			if err := emitRM(e, 0, 1, false, []byte{0x80}, spec.digit, dst, reg8); err != nil {
				return err
			}
			e.imm(v, 1)
		case fitsInt8(v):
			if err := emitRM(e, 0, w, false, []byte{0x83}, spec.digit, dst, reg8); err != nil {
				return err
			}
			e.imm(v, 1)
		default:
			immSize := 4
			if w == 2 {
				immSize = 2
				if v < math.MinInt16 || v > math.MaxUint16 {
					return ErrImmTooLarge
				}
			} else if !fitsInt32(v) {
				return ErrImmTooLarge
			}
			if err := emitRM(e, 0, w, false, []byte{0x81}, spec.digit, dst, reg8); err != nil {
				return err
			}
			e.imm(v, immSize)
		}
		return nil
	}
	return ErrBadOperands
}

func encodeTEST(e *enc, in Inst) error {
	dst, src := in.Dst(), in.Src()
	switch s := src.(type) {
	case RegArg:
		w := s.Reg.Width()
		op := byte(0x84)
		if w != 1 {
			op = 0x85
		}
		return emitRM(e, 0, w, false, []byte{op}, s.Reg.Num(), dst, s.Reg)
	case Imm:
		w := in.Width
		var reg8 Reg
		if d, ok := dst.(RegArg); ok {
			w = d.Reg.Width()
			reg8 = d.Reg
		}
		switch w {
		case 1:
			if err := emitRM(e, 0, 1, false, []byte{0xF6}, 0, dst, reg8); err != nil {
				return err
			}
			e.imm(s.Value, 1)
		case 2:
			if err := emitRM(e, 0, 2, false, []byte{0xF7}, 0, dst, reg8); err != nil {
				return err
			}
			e.imm(s.Value, 2)
		case 4, 8:
			if !fitsInt32(s.Value) {
				return ErrImmTooLarge
			}
			if err := emitRM(e, 0, w, false, []byte{0xF7}, 0, dst, reg8); err != nil {
				return err
			}
			e.imm(s.Value, 4)
		default:
			return ErrBadWidth
		}
		return nil
	}
	return ErrBadOperands
}

func encodeIMUL(e *enc, in Inst) error {
	switch len(in.Args) {
	case 1:
		w, err := widthOf(&in)
		if err != nil {
			return err
		}
		op := byte(0xF7)
		if w == 1 {
			op = 0xF6
		}
		return emitRM(e, 0, w, false, []byte{op}, 5, in.Args[0], RegNone)
	case 2:
		d, ok := in.Dst().(RegArg)
		if !ok {
			return ErrBadOperands
		}
		return emitRM(e, 0, d.Reg.Width(), false, []byte{0x0F, 0xAF}, d.Reg.Num(), in.Src(), RegNone)
	case 3:
		d, ok := in.Args[0].(RegArg)
		if !ok {
			return ErrBadOperands
		}
		imm, ok := in.Args[2].(Imm)
		if !ok {
			return ErrBadOperands
		}
		if fitsInt8(imm.Value) {
			if err := emitRM(e, 0, d.Reg.Width(), false, []byte{0x6B}, d.Reg.Num(), in.Args[1], RegNone); err != nil {
				return err
			}
			e.imm(imm.Value, 1)
			return nil
		}
		if !fitsInt32(imm.Value) {
			return ErrImmTooLarge
		}
		if err := emitRM(e, 0, d.Reg.Width(), false, []byte{0x69}, d.Reg.Num(), in.Args[1], RegNone); err != nil {
			return err
		}
		immSize := 4
		if d.Reg.Width() == 2 {
			immSize = 2
		}
		e.imm(imm.Value, immSize)
		return nil
	}
	return ErrBadOperands
}

func encodeGroup3(e *enc, in Inst) error {
	var digit int
	switch in.Op {
	case OpIDIV:
		digit = 7
	case OpDIV:
		digit = 6
	case OpNEG:
		digit = 3
	case OpNOT:
		digit = 2
	}
	w, err := widthOf(&in)
	if err != nil {
		return err
	}
	op := byte(0xF7)
	if w == 1 {
		op = 0xF6
	}
	var reg8 Reg
	if r, ok := in.Args[0].(RegArg); ok {
		reg8 = r.Reg
	}
	return emitRM(e, 0, w, false, []byte{op}, digit, in.Args[0], reg8)
}

func encodeShift(e *enc, in Inst) error {
	var digit int
	switch in.Op {
	case OpROL:
		digit = 0
	case OpROR:
		digit = 1
	case OpSHL:
		digit = 4
	case OpSHR:
		digit = 5
	case OpSAR:
		digit = 7
	}
	w, err := widthOf(&in)
	if err != nil {
		return err
	}
	var reg8 Reg
	if r, ok := in.Dst().(RegArg); ok {
		reg8 = r.Reg
	}
	switch s := in.Src().(type) {
	case Imm:
		op := byte(0xC1)
		if w == 1 {
			op = 0xC0
		}
		if s.Value < 0 || s.Value > 63 {
			return ErrImmTooLarge
		}
		if err := emitRM(e, 0, w, false, []byte{op}, digit, in.Dst(), reg8); err != nil {
			return err
		}
		e.imm(s.Value, 1)
		return nil
	case RegArg:
		if s.Reg != CL {
			return fmt.Errorf("shift count must be cl: %w", ErrBadOperands)
		}
		op := byte(0xD3)
		if w == 1 {
			op = 0xD2
		}
		return emitRM(e, 0, w, false, []byte{op}, digit, in.Dst(), reg8)
	}
	return ErrBadOperands
}

func encodeIncDec(e *enc, in Inst) error {
	digit := 0
	if in.Op == OpDEC {
		digit = 1
	}
	w, err := widthOf(&in)
	if err != nil {
		return err
	}
	op := byte(0xFF)
	if w == 1 {
		op = 0xFE
	}
	var reg8 Reg
	if r, ok := in.Args[0].(RegArg); ok {
		reg8 = r.Reg
	}
	return emitRM(e, 0, w, false, []byte{op}, digit, in.Args[0], reg8)
}

func encodePushPop(e *enc, in Inst) error {
	switch a := in.Args[0].(type) {
	case RegArg:
		if a.Reg.Width() != 8 {
			return fmt.Errorf("push/pop needs 64-bit register: %w", ErrBadOperands)
		}
		n := a.Reg.Num()
		var rex rexParts
		rex.regBit(n, &rex.b)
		if err := rex.emit(e); err != nil {
			return err
		}
		base := byte(0x50)
		if in.Op == OpPOP {
			base = 0x58
		}
		e.byte(base + byte(n&7))
		return nil
	case Imm:
		if in.Op != OpPUSH {
			return ErrBadOperands
		}
		if fitsInt8(a.Value) {
			e.byte(0x6A)
			e.imm(a.Value, 1)
			return nil
		}
		if !fitsInt32(a.Value) {
			return ErrImmTooLarge
		}
		e.byte(0x68)
		e.imm(a.Value, 4)
		return nil
	}
	return ErrBadOperands
}

func relTarget(in Inst, instLen int) (int64, error) {
	s, ok := in.Args[0].(Sym)
	if !ok {
		return 0, ErrBadOperands
	}
	if !s.Resolved {
		return 0, fmt.Errorf("%q: %w", s.Name, ErrUnresolved)
	}
	rel := int64(s.Addr) - (int64(in.Addr) + int64(instLen))
	if !fitsInt32(rel) {
		return 0, ErrJumpTooFar
	}
	return rel, nil
}

func encodeCALL(e *enc, in Inst) error {
	switch a := in.Args[0].(type) {
	case Sym:
		_ = a
		rel, err := relTarget(in, 5)
		if err != nil {
			return err
		}
		e.byte(0xE8)
		e.imm(rel, 4)
		return nil
	case RegArg:
		if a.Reg.Width() != 8 {
			return ErrBadOperands
		}
		return emitRM(e, 0, 8, true, []byte{0xFF}, 2, in.Args[0], RegNone)
	}
	return ErrBadOperands
}

func encodeJMP(e *enc, in Inst) error {
	if _, ok := in.Args[0].(Sym); !ok {
		return ErrBadOperands
	}
	rel, err := relTarget(in, 5)
	if err != nil {
		return err
	}
	e.byte(0xE9)
	e.imm(rel, 4)
	return nil
}

func encodeJcc(e *enc, in Inst) error {
	if _, ok := in.Args[0].(Sym); !ok {
		return ErrBadOperands
	}
	rel, err := relTarget(in, 6)
	if err != nil {
		return err
	}
	e.bytes(0x0F, 0x80+condCode[in.Op])
	e.imm(rel, 4)
	return nil
}

// encodeXCHG emits the 86/87 exchange form (the 90+r short forms are
// never generated; 0x90 decodes as NOP).
func encodeXCHG(e *enc, in Inst) error {
	// One operand must be a register; it goes in the reg field.
	if r, ok := in.Src().(RegArg); ok {
		w := r.Reg.Width()
		op := byte(0x86)
		if w != 1 {
			op = 0x87
		}
		return emitRM(e, 0, w, false, []byte{op}, r.Reg.Num(), in.Dst(), r.Reg)
	}
	return ErrBadOperands
}

// encodeCMOV emits 0F 40+cc /r (reg, r/m; 16/32/64-bit only).
func encodeCMOV(e *enc, in Inst) error {
	d, ok := in.Dst().(RegArg)
	if !ok || d.Reg.Width() == 1 {
		return ErrBadOperands
	}
	return emitRM(e, 0, d.Reg.Width(), false, []byte{0x0F, 0x40 + condCode[in.Op]},
		d.Reg.Num(), in.Src(), RegNone)
}

func encodeSETcc(e *enc, in Inst) error {
	var reg8 Reg
	if r, ok := in.Args[0].(RegArg); ok {
		if r.Reg.Width() != 1 {
			return ErrBadOperands
		}
		reg8 = r.Reg
	}
	return emitRM(e, 0, 1, false, []byte{0x0F, 0x90 + condCode[in.Op]}, 0, in.Args[0], reg8)
}

// sseSpec maps SSE mnemonics to mandatory prefix + second opcode byte for
// the xmm, xmm/m form.
type sseSpec struct {
	prefix byte
	op     byte
}

var sseSpecs = map[Op]sseSpec{
	OpMOVSS: {0xF3, 0x10}, OpMOVSD: {0xF2, 0x10},
	OpADDSS: {0xF3, 0x58}, OpADDSD: {0xF2, 0x58},
	OpSUBSS: {0xF3, 0x5C}, OpSUBSD: {0xF2, 0x5C},
	OpMULSS: {0xF3, 0x59}, OpMULSD: {0xF2, 0x59},
	OpDIVSS: {0xF3, 0x5E}, OpDIVSD: {0xF2, 0x5E},
	OpCVTSS2SD: {0xF3, 0x5A}, OpCVTSD2SS: {0xF2, 0x5A},
	OpUCOMISS: {0x00, 0x2E}, OpUCOMISD: {0x66, 0x2E},
	OpPXOR: {0x66, 0xEF}, OpXORPS: {0x00, 0x57},
	OpMOVAPS: {0x00, 0x28}, OpMOVUPS: {0x00, 0x10},
	OpADDPS: {0x00, 0x58}, OpMULPS: {0x00, 0x59}, OpMAXPS: {0x00, 0x5F},
}

func encodeSSE(e *enc, in Inst) error {
	switch in.Op {
	case OpCVTSI2SS, OpCVTSI2SD:
		d, ok := in.Dst().(RegArg)
		if !ok || !d.Reg.IsXMM() {
			return ErrBadOperands
		}
		prefix := byte(0xF3)
		if in.Op == OpCVTSI2SD {
			prefix = 0xF2
		}
		srcW := in.Width
		if s, ok := in.Src().(RegArg); ok {
			srcW = s.Reg.Width()
		}
		if srcW != 4 && srcW != 8 {
			return ErrBadWidth
		}
		return emitSSE(e, prefix, srcW == 8, []byte{0x0F, 0x2A}, d.Reg.Num(), in.Src())
	case OpCVTTSS2SI, OpCVTTSD2SI:
		d, ok := in.Dst().(RegArg)
		if !ok || !d.Reg.IsGPR() {
			return ErrBadOperands
		}
		prefix := byte(0xF3)
		if in.Op == OpCVTTSD2SI {
			prefix = 0xF2
		}
		return emitSSE(e, prefix, d.Reg.Width() == 8, []byte{0x0F, 0x2C}, d.Reg.Num(), in.Src())
	}

	if in.Op == OpMOVQX {
		// movq xmm ↔ r/m64: 66 REX.W 0F 6E (load) / 7E (store).
		if d, ok := in.Dst().(RegArg); ok && d.Reg.IsXMM() {
			return emitSSE(e, 0x66, true, []byte{0x0F, 0x6E}, d.Reg.Num(), in.Src())
		}
		if s, ok := in.Src().(RegArg); ok && s.Reg.IsXMM() {
			return emitSSE(e, 0x66, true, []byte{0x0F, 0x7E}, s.Reg.Num(), in.Dst())
		}
		return ErrBadOperands
	}

	if in.Op == OpSHUFPS {
		// shufps xmm, xmm/m128, imm8: 0F C6 /r ib.
		d, ok := in.Dst().(RegArg)
		if !ok || !d.Reg.IsXMM() || len(in.Args) != 3 {
			return ErrBadOperands
		}
		imm, ok := in.Args[2].(Imm)
		if !ok {
			return ErrBadOperands
		}
		if imm.Value < 0 || imm.Value > 255 {
			return ErrImmTooLarge
		}
		if err := emitSSE(e, 0, false, []byte{0x0F, 0xC6}, d.Reg.Num(), in.Src()); err != nil {
			return err
		}
		e.imm(imm.Value, 1)
		return nil
	}

	spec, ok := sseSpecs[in.Op]
	if !ok {
		return ErrUnknownOp
	}
	dst, src := in.Dst(), in.Src()
	if d, ok := dst.(RegArg); ok && d.Reg.IsXMM() {
		return emitSSE(e, spec.prefix, false, []byte{0x0F, spec.op}, d.Reg.Num(), src)
	}
	// Store form (mem, xmm): movss/movsd/movups use opcode base+1,
	// movaps 0x29.
	var storeOp byte
	switch in.Op {
	case OpMOVSS, OpMOVSD, OpMOVUPS:
		storeOp = 0x11
	case OpMOVAPS:
		storeOp = 0x29
	default:
		return ErrBadOperands
	}
	s, ok := src.(RegArg)
	if !ok || !s.Reg.IsXMM() {
		return ErrBadOperands
	}
	if _, ok := dst.(Mem); !ok {
		return ErrBadOperands
	}
	return emitSSE(e, spec.prefix, false, []byte{0x0F, storeOp}, s.Reg.Num(), dst)
}

// emitSSE writes mandatory prefix, REX, two-byte opcode and r/m tail. The
// mandatory prefix precedes REX per the SSE encoding rules.
func emitSSE(e *enc, prefix byte, rexW bool, opcode []byte, regNum int, rm Operand) error {
	rex := rexParts{w: rexW}
	t, err := buildModRM(regNum, rm, &rex)
	if err != nil {
		return err
	}
	if prefix != 0 {
		e.byte(prefix)
	}
	if err := rex.emit(e); err != nil {
		return err
	}
	e.bytes(opcode...)
	e.byte(t.modrm)
	if t.hasSIB {
		e.byte(t.sib)
	}
	e.bytes(t.disp...)
	return nil
}

func encodeX87(e *enc, in Inst) error {
	switch in.Op {
	case OpFLD:
		if m, ok := in.Dst().(Mem); ok {
			switch in.Width {
			case 4:
				return emitRM(e, 0, 4, true, []byte{0xD9}, 0, m, RegNone)
			case 8:
				return emitRM(e, 0, 4, true, []byte{0xDD}, 0, m, RegNone)
			case 10:
				return emitRM(e, 0, 4, true, []byte{0xDB}, 5, m, RegNone)
			}
			return ErrBadWidth
		}
		if r, ok := in.Dst().(RegArg); ok && r.Reg.IsST() {
			e.bytes(0xD9, 0xC0+byte(r.Reg.Num()))
			return nil
		}
		return ErrBadOperands
	case OpFSTP:
		if m, ok := in.Dst().(Mem); ok {
			switch in.Width {
			case 4:
				return emitRM(e, 0, 4, true, []byte{0xD9}, 3, m, RegNone)
			case 8:
				return emitRM(e, 0, 4, true, []byte{0xDD}, 3, m, RegNone)
			case 10:
				return emitRM(e, 0, 4, true, []byte{0xDB}, 7, m, RegNone)
			}
			return ErrBadWidth
		}
		if r, ok := in.Dst().(RegArg); ok && r.Reg.IsST() {
			e.bytes(0xDD, 0xD8+byte(r.Reg.Num()))
			return nil
		}
		return ErrBadOperands
	case OpFILD:
		m, ok := in.Dst().(Mem)
		if !ok {
			return ErrBadOperands
		}
		switch in.Width {
		case 2:
			return emitRM(e, 0, 4, true, []byte{0xDF}, 0, m, RegNone)
		case 4:
			return emitRM(e, 0, 4, true, []byte{0xDB}, 0, m, RegNone)
		case 8:
			return emitRM(e, 0, 4, true, []byte{0xDF}, 5, m, RegNone)
		}
		return ErrBadWidth
	case OpFADDP:
		e.bytes(0xDE, 0xC1)
	case OpFMULP:
		e.bytes(0xDE, 0xC9)
	case OpFSUBP:
		e.bytes(0xDE, 0xE9)
	case OpFDIVP:
		e.bytes(0xDE, 0xF9)
	case OpFCHS:
		e.bytes(0xD9, 0xE0)
	case OpFXCH:
		e.bytes(0xD9, 0xC9)
	case OpFUCOMIP:
		e.bytes(0xDF, 0xE9)
	default:
		return ErrUnknownOp
	}
	return nil
}
