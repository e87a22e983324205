package asm

import (
	"fmt"
)

// decoder walks one instruction's bytes.
type decoder struct {
	code []byte
	pos  int
	addr uint64

	opSize bool // 0x66 seen
	repF2  bool
	repF3  bool
	rex    byte
	hasREX bool
	// disp8N scales a one-byte displacement (EVEX disp8*N); 0 means 1.
	disp8N int32
}

func (d *decoder) peek() (byte, error) {
	if d.pos >= len(d.code) {
		return 0, ErrTruncated
	}
	return d.code[d.pos], nil
}

func (d *decoder) next() (byte, error) {
	b, err := d.peek()
	if err != nil {
		return 0, err
	}
	d.pos++
	return b, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.code) {
		return 0, ErrTruncated
	}
	v := uint16(d.code[d.pos]) | uint16(d.code[d.pos+1])<<8
	d.pos += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.code) {
		return 0, ErrTruncated
	}
	v := uint32(d.code[d.pos]) | uint32(d.code[d.pos+1])<<8 |
		uint32(d.code[d.pos+2])<<16 | uint32(d.code[d.pos+3])<<24
	d.pos += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	lo, err := d.u32()
	if err != nil {
		return 0, err
	}
	hi, err := d.u32()
	if err != nil {
		return 0, err
	}
	return uint64(lo) | uint64(hi)<<32, nil
}

func (d *decoder) rexW() bool { return d.hasREX && d.rex&8 != 0 }
func (d *decoder) rexR() int {
	if d.hasREX && d.rex&4 != 0 {
		return 8
	}
	return 0
}
func (d *decoder) rexX() int {
	if d.hasREX && d.rex&2 != 0 {
		return 8
	}
	return 0
}
func (d *decoder) rexB() int {
	if d.hasREX && d.rex&1 != 0 {
		return 8
	}
	return 0
}

// opWidth resolves the GPR operand width from prefixes for non-byte ops.
func (d *decoder) opWidth() int {
	switch {
	case d.rexW():
		return 8
	case d.opSize:
		return 2
	default:
		return 4
	}
}

// gpr returns the GPR for hardware number n at width w, honouring the
// high-byte legacy registers for width-1 non-REX encodings.
func (d *decoder) gpr(n, w int) Reg {
	if w == 1 && !d.hasREX && n >= 4 && n <= 7 {
		return AH + Reg(n-4)
	}
	return GPR(n, w)
}

// modRM parses a ModRM byte (plus SIB/disp) and returns the reg field
// number (REX-extended) and the r/m operand. rmWidth gives the register
// width to use when the r/m operand is a register; xmmRM selects XMM
// interpretation of the r/m register field.
func (d *decoder) modRM(rmWidth int, xmmRM bool) (int, Operand, error) {
	b, err := d.next()
	if err != nil {
		return 0, nil, err
	}
	mod := b >> 6
	regNum := int(b>>3&7) + d.rexR()
	rm := int(b & 7)

	if mod == 3 {
		n := rm + d.rexB()
		if xmmRM {
			return regNum, RegArg{Reg: XMM(n)}, nil
		}
		return regNum, RegArg{Reg: d.gpr(n, rmWidth)}, nil
	}

	var m Mem
	m.Scale = 1
	useSIB := rm == 4
	if useSIB {
		sib, err := d.next()
		if err != nil {
			return 0, nil, err
		}
		scale := uint8(1) << (sib >> 6)
		idx := int(sib>>3&7) + d.rexX()
		base := int(sib&7) + d.rexB()
		// index=100 with REX.X clear means "no index"; with REX.X set it
		// addresses r12.
		if int(sib>>3&7) != 4 || d.rexX() != 0 {
			m.Index = GPR(idx, 8)
			m.Scale = scale
		}
		if sib&7 == 5 && mod == 0 {
			// No base, disp32 follows.
			m.Base = RegNone
			v, err := d.u32()
			if err != nil {
				return 0, nil, err
			}
			m.Disp = int32(v)
			return regNum, m, nil
		}
		m.Base = GPR(base, 8)
	} else if rm == 5 && mod == 0 {
		// RIP-relative.
		v, err := d.u32()
		if err != nil {
			return 0, nil, err
		}
		return regNum, Mem{Base: RIP, Scale: 1, Disp: int32(v)}, nil
	} else {
		m.Base = GPR(rm+d.rexB(), 8)
	}

	switch mod {
	case 0:
	case 1:
		v, err := d.next()
		if err != nil {
			return 0, nil, err
		}
		m.Disp = int32(int8(v))
		if d.disp8N != 0 {
			m.Disp *= d.disp8N
		}
	case 2:
		v, err := d.u32()
		if err != nil {
			return 0, nil, err
		}
		m.Disp = int32(v)
	}
	return regNum, m, nil
}

func (d *decoder) immVal(size int) (int64, error) {
	switch size {
	case 1:
		b, err := d.next()
		if err != nil {
			return 0, err
		}
		return int64(int8(b)), nil
	case 2:
		v, err := d.u16()
		if err != nil {
			return 0, err
		}
		return int64(int16(v)), nil
	case 4:
		v, err := d.u32()
		if err != nil {
			return 0, err
		}
		return int64(int32(v)), nil
	case 8:
		v, err := d.u64()
		if err != nil {
			return 0, err
		}
		return int64(v), nil
	}
	return 0, ErrBadWidth
}

// Decode decodes the instruction at the start of code, which is assumed to
// sit at virtual address addr (needed to resolve RIP-relative branch
// targets). It returns the instruction with Addr and Len filled.
func Decode(code []byte, addr uint64) (Inst, error) {
	d := &decoder{code: code, addr: addr}
	in, err := d.decode()
	if err != nil {
		return Inst{}, fmt.Errorf("decode at %#x: %w", addr, err)
	}
	in.Addr = addr
	in.Len = d.pos
	return in, nil
}

// DecodeAll decodes a contiguous instruction stream starting at base.
func DecodeAll(code []byte, base uint64) ([]Inst, error) {
	var out []Inst
	off := 0
	for off < len(code) {
		in, err := Decode(code[off:], base+uint64(off))
		if err != nil {
			return out, err
		}
		out = append(out, in)
		off += in.Len
	}
	return out, nil
}

func (d *decoder) decode() (Inst, error) {
	// Prefixes.
	for {
		b, err := d.peek()
		if err != nil {
			return Inst{}, err
		}
		switch b {
		case 0x66:
			d.opSize = true
		case 0xF2:
			d.repF2 = true
		case 0xF3:
			d.repF3 = true
		default:
			if b == 0xC4 || b == 0xC5 || b == 0x62 {
				// VEX or EVEX prefix; combining it with legacy prefixes
				// is #UD.
				if d.opSize || d.repF2 || d.repF3 {
					return Inst{}, ErrBadEncoding
				}
				d.pos++
				if b == 0x62 {
					return d.evex()
				}
				return d.vex(b)
			}
			if b >= 0x40 && b <= 0x4F {
				d.rex = b
				d.hasREX = true
				d.pos++
				// REX must immediately precede the opcode.
				return d.opcode()
			}
			return d.opcode()
		}
		d.pos++
	}
}

func (d *decoder) opcode() (Inst, error) {
	op, err := d.next()
	if err != nil {
		return Inst{}, err
	}
	switch {
	case op == 0x0F:
		return d.twoByte()

	// Classic ALU families.
	case isALUOpcode(op):
		return d.alu(op)

	case op >= 0x50 && op <= 0x57:
		return Inst{Op: OpPUSH, Width: 8, Args: []Operand{R(GPR(int(op-0x50)+d.rexB(), 8))}}, nil
	case op >= 0x58 && op <= 0x5F:
		return Inst{Op: OpPOP, Width: 8, Args: []Operand{R(GPR(int(op-0x58)+d.rexB(), 8))}}, nil

	case op == 0x63:
		reg, rm, err := d.modRM(4, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpMOVSXD, Width: 8, Args: []Operand{R(GPR(reg, 8)), rm}}, nil

	case op == 0x68:
		v, err := d.immVal(4)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpPUSH, Args: []Operand{Imm{Value: v}}}, nil
	case op == 0x6A:
		v, err := d.immVal(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpPUSH, Args: []Operand{Imm{Value: v}}}, nil

	case op == 0x69 || op == 0x6B:
		w := d.opWidth()
		reg, rm, err := d.modRM(w, false)
		if err != nil {
			return Inst{}, err
		}
		immSize := 1
		if op == 0x69 {
			immSize = 4
			if w == 2 {
				immSize = 2
			}
		}
		v, err := d.immVal(immSize)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpIMUL, Width: w, Args: []Operand{R(GPR(reg, w)), rm, Imm{Value: v}}}, nil

	case op >= 0x70 && op <= 0x7F:
		return d.jccRel(op-0x70, 1)

	case op == 0x80 || op == 0x81 || op == 0x83:
		return d.aluImm(op)

	case op == 0x84 || op == 0x85:
		w := 1
		if op == 0x85 {
			w = d.opWidth()
		}
		reg, rm, err := d.modRM(w, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpTEST, Width: w, Args: []Operand{rm, R(d.gpr(reg, w))}}, nil

	case op == 0x86 || op == 0x87:
		w := 1
		if op == 0x87 {
			w = d.opWidth()
		}
		reg, rm, err := d.modRM(w, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpXCHG, Width: w, Args: []Operand{rm, R(d.gpr(reg, w))}}, nil

	case op >= 0x88 && op <= 0x8B:
		return d.mov(op)

	case op == 0x8D:
		w := d.opWidth()
		reg, rm, err := d.modRM(w, false)
		if err != nil {
			return Inst{}, err
		}
		m, ok := rm.(Mem)
		if !ok {
			return Inst{}, ErrBadEncoding
		}
		return Inst{Op: OpLEA, Width: w, Args: []Operand{R(GPR(reg, w)), m}}, nil

	case op == 0x90:
		return Inst{Op: OpNOP}, nil

	case op == 0x99:
		if d.rexW() {
			return Inst{Op: OpCQO}, nil
		}
		return Inst{Op: OpCDQ}, nil

	case op >= 0xB0 && op <= 0xB7:
		v, err := d.immVal(1)
		if err != nil {
			return Inst{}, err
		}
		r := d.gpr(int(op-0xB0)+d.rexB(), 1)
		return Inst{Op: OpMOV, Width: 1, Args: []Operand{R(r), Imm{Value: v}}}, nil

	case op >= 0xB8 && op <= 0xBF:
		n := int(op-0xB8) + d.rexB()
		if d.rexW() {
			v, err := d.immVal(8)
			if err != nil {
				return Inst{}, err
			}
			return Inst{Op: OpMOVABS, Width: 8, Args: []Operand{R(GPR(n, 8)), Imm{Value: v}}}, nil
		}
		w := d.opWidth()
		v, err := d.immVal(w)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpMOV, Width: w, Args: []Operand{R(GPR(n, w)), Imm{Value: v}}}, nil

	case op == 0xC0 || op == 0xC1:
		w := 1
		if op == 0xC1 {
			w = d.opWidth()
		}
		reg, rm, err := d.modRM(w, false)
		if err != nil {
			return Inst{}, err
		}
		sop, err := shiftOp(reg)
		if err != nil {
			return Inst{}, err
		}
		v, err := d.immVal(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: sop, Width: w, Args: []Operand{rm, Imm{Value: v & 0x3F}}}, nil

	case op == 0xD2 || op == 0xD3:
		w := 1
		if op == 0xD3 {
			w = d.opWidth()
		}
		reg, rm, err := d.modRM(w, false)
		if err != nil {
			return Inst{}, err
		}
		sop, err := shiftOp(reg)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: sop, Width: w, Args: []Operand{rm, R(CL)}}, nil

	case op == 0xC3:
		return Inst{Op: OpRET}, nil
	case op == 0xC9:
		return Inst{Op: OpLEAVE}, nil

	case op == 0xC6 || op == 0xC7:
		w := 1
		if op == 0xC7 {
			w = d.opWidth()
		}
		reg, rm, err := d.modRM(w, false)
		if err != nil {
			return Inst{}, err
		}
		if reg&7 != 0 {
			return Inst{}, ErrBadEncoding
		}
		immSize := w
		if w == 8 {
			immSize = 4
		}
		v, err := d.immVal(immSize)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpMOV, Width: w, Args: []Operand{rm, Imm{Value: v}}}, nil

	case op == 0xE8:
		return d.branchRel(OpCALL, 4)
	case op == 0xE9:
		return d.branchRel(OpJMP, 4)
	case op == 0xEB:
		return d.branchRel(OpJMP, 1)

	case op == 0xF6 || op == 0xF7:
		return d.group3(op)

	case op == 0xFE || op == 0xFF:
		return d.group45(op)

	case op == 0xD9 || op == 0xDB || op == 0xDD || op == 0xDE || op == 0xDF:
		return d.x87(op)
	}
	return Inst{}, fmt.Errorf("opcode %#02x: %w", op, ErrBadEncoding)
}

func isALUOpcode(op byte) bool {
	hi, lo := op&0xF8, op&7
	switch hi {
	case 0x00, 0x08, 0x10, 0x18, 0x20, 0x28, 0x30, 0x38:
		return lo <= 3
	}
	return false
}

var aluByBase = map[byte]Op{
	0x00: OpADD, 0x08: OpOR, 0x10: OpADC, 0x18: OpSBB,
	0x20: OpAND, 0x28: OpSUB, 0x30: OpXOR, 0x38: OpCMP,
}

var aluByDigit = [8]Op{OpADD, OpOR, OpADC, OpSBB, OpAND, OpSUB, OpXOR, OpCMP}

func (d *decoder) alu(op byte) (Inst, error) {
	mnem := aluByBase[op&0xF8]
	form := op & 3
	w := 1
	if form&1 == 1 {
		w = d.opWidth()
	}
	reg, rm, err := d.modRM(w, false)
	if err != nil {
		return Inst{}, err
	}
	regOp := R(d.gpr(reg, w))
	if form <= 1 { // r/m, r
		return Inst{Op: mnem, Width: w, Args: []Operand{rm, regOp}}, nil
	}
	return Inst{Op: mnem, Width: w, Args: []Operand{regOp, rm}}, nil
}

func (d *decoder) aluImm(op byte) (Inst, error) {
	w := 1
	if op != 0x80 {
		w = d.opWidth()
	}
	reg, rm, err := d.modRM(w, false)
	if err != nil {
		return Inst{}, err
	}
	mnem := aluByDigit[reg&7]
	if mnem == OpInvalid {
		return Inst{}, ErrBadEncoding
	}
	immSize := 1
	if op == 0x81 {
		immSize = 4
		if w == 2 {
			immSize = 2
		}
	}
	v, err := d.immVal(immSize)
	if err != nil {
		return Inst{}, err
	}
	return Inst{Op: mnem, Width: w, Args: []Operand{rm, Imm{Value: v}}}, nil
}

func (d *decoder) mov(op byte) (Inst, error) {
	w := 1
	if op == 0x89 || op == 0x8B {
		w = d.opWidth()
	}
	reg, rm, err := d.modRM(w, false)
	if err != nil {
		return Inst{}, err
	}
	regOp := R(d.gpr(reg, w))
	if op <= 0x89 { // store: r/m, r
		return Inst{Op: OpMOV, Width: w, Args: []Operand{rm, regOp}}, nil
	}
	return Inst{Op: OpMOV, Width: w, Args: []Operand{regOp, rm}}, nil
}

var ccToJcc = map[byte]Op{
	0x2: OpJB, 0x3: OpJAE, 0x4: OpJE, 0x5: OpJNE, 0x6: OpJBE, 0x7: OpJA,
	0x8: OpJS, 0x9: OpJNS, 0xC: OpJL, 0xD: OpJGE, 0xE: OpJLE, 0xF: OpJG,
}

var ccToSET = map[byte]Op{
	0x2: OpSETB, 0x3: OpSETAE, 0x4: OpSETE, 0x5: OpSETNE, 0x6: OpSETBE,
	0x7: OpSETA, 0x8: OpSETS, 0x9: OpSETNS, 0xC: OpSETL, 0xD: OpSETGE,
	0xE: OpSETLE, 0xF: OpSETG,
}

func (d *decoder) jccRel(cc byte, size int) (Inst, error) {
	mnem, ok := ccToJcc[cc]
	if !ok {
		return Inst{}, ErrBadEncoding
	}
	return d.branchRel(mnem, size)
}

func (d *decoder) branchRel(mnem Op, size int) (Inst, error) {
	v, err := d.immVal(size)
	if err != nil {
		return Inst{}, err
	}
	target := d.addr + uint64(d.pos) + uint64(v)
	return Inst{Op: mnem, Args: []Operand{Sym{Addr: target, Resolved: true}}}, nil
}

func (d *decoder) group3(op byte) (Inst, error) {
	w := 1
	if op == 0xF7 {
		w = d.opWidth()
	}
	reg, rm, err := d.modRM(w, false)
	if err != nil {
		return Inst{}, err
	}
	switch reg & 7 {
	case 0: // TEST r/m, imm
		immSize := w
		if w == 8 {
			immSize = 4
		}
		v, err := d.immVal(immSize)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpTEST, Width: w, Args: []Operand{rm, Imm{Value: v}}}, nil
	case 2:
		return Inst{Op: OpNOT, Width: w, Args: []Operand{rm}}, nil
	case 3:
		return Inst{Op: OpNEG, Width: w, Args: []Operand{rm}}, nil
	case 5:
		return Inst{Op: OpIMUL, Width: w, Args: []Operand{rm}}, nil
	case 6:
		return Inst{Op: OpDIV, Width: w, Args: []Operand{rm}}, nil
	case 7:
		return Inst{Op: OpIDIV, Width: w, Args: []Operand{rm}}, nil
	}
	return Inst{}, ErrBadEncoding
}

func (d *decoder) group45(op byte) (Inst, error) {
	w := 1
	if op == 0xFF {
		w = d.opWidth()
	}
	reg, rm, err := d.modRM(w, false)
	if err != nil {
		return Inst{}, err
	}
	switch reg & 7 {
	case 0:
		return Inst{Op: OpINC, Width: w, Args: []Operand{rm}}, nil
	case 1:
		return Inst{Op: OpDEC, Width: w, Args: []Operand{rm}}, nil
	case 2:
		if op != 0xFF {
			return Inst{}, ErrBadEncoding
		}
		r, ok := rm.(RegArg)
		if !ok {
			return Inst{}, ErrBadEncoding
		}
		return Inst{Op: OpCALL, Width: 8, Args: []Operand{R(r.Reg.WithWidth(8))}}, nil
	}
	return Inst{}, ErrBadEncoding
}

func shiftOp(digit int) (Op, error) {
	switch digit & 7 {
	case 0:
		return OpROL, nil
	case 1:
		return OpROR, nil
	case 4:
		return OpSHL, nil
	case 5:
		return OpSHR, nil
	case 7:
		return OpSAR, nil
	}
	return OpInvalid, ErrBadEncoding
}

var ccToCMOV = map[byte]Op{
	0x2: OpCMOVB, 0x3: OpCMOVAE, 0x4: OpCMOVE, 0x5: OpCMOVNE, 0x6: OpCMOVBE,
	0x7: OpCMOVA, 0x8: OpCMOVS, 0x9: OpCMOVNS, 0xC: OpCMOVL, 0xD: OpCMOVGE,
	0xE: OpCMOVLE, 0xF: OpCMOVG,
}

func (d *decoder) twoByte() (Inst, error) {
	op, err := d.next()
	if err != nil {
		return Inst{}, err
	}
	switch {
	case op >= 0x40 && op <= 0x4F:
		mnem, ok := ccToCMOV[op-0x40]
		if !ok {
			return Inst{}, ErrBadEncoding
		}
		w := d.opWidth()
		reg, rm, err := d.modRM(w, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: mnem, Width: w, Args: []Operand{R(GPR(reg, w)), rm}}, nil
	case op >= 0x80 && op <= 0x8F:
		return d.jccRel(op-0x80, 4)
	case op >= 0x90 && op <= 0x9F:
		mnem, ok := ccToSET[op-0x90]
		if !ok {
			return Inst{}, ErrBadEncoding
		}
		_, rm, err := d.modRM(1, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: mnem, Width: 1, Args: []Operand{rm}}, nil
	case op == 0xA2:
		return Inst{Op: OpCPUID}, nil
	case op == 0x01:
		b, err := d.next()
		if err != nil {
			return Inst{}, err
		}
		if b != 0xD0 {
			return Inst{}, fmt.Errorf("0f 01 %#02x: %w", b, ErrBadEncoding)
		}
		return Inst{Op: OpXGETBV}, nil
	case op == 0xAF:
		w := d.opWidth()
		reg, rm, err := d.modRM(w, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpIMUL, Width: w, Args: []Operand{R(GPR(reg, w)), rm}}, nil
	case op == 0xB6 || op == 0xB7 || op == 0xBE || op == 0xBF:
		srcW := 1
		if op == 0xB7 || op == 0xBF {
			srcW = 2
		}
		mnem := OpMOVZX
		if op >= 0xBE {
			mnem = OpMOVSX
		}
		dstW := d.opWidth()
		reg, rm, err := d.modRM(srcW, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: mnem, Width: srcW, Args: []Operand{R(GPR(reg, dstW)), rm}}, nil
	}
	return d.sse(op)
}

func (d *decoder) sse(op byte) (Inst, error) {
	ssBit := d.repF3 // F3 = scalar single
	sdBit := d.repF2 // F2 = scalar double
	switch op {
	case 0x10, 0x11:
		mnem, w := OpMOVSS, 4
		if sdBit {
			mnem, w = OpMOVSD, 8
		} else if !ssBit {
			// No rep prefix: packed form. 0x66 would be movupd, which we
			// neither emit nor accept.
			if d.opSize {
				return Inst{}, ErrBadEncoding
			}
			mnem, w = OpMOVUPS, 16
		}
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		x := R(XMM(reg))
		if op == 0x10 {
			return Inst{Op: mnem, Width: w, Args: []Operand{x, rm}}, nil
		}
		return Inst{Op: mnem, Width: w, Args: []Operand{rm, x}}, nil
	case 0x2A: // cvtsi2ss/sd
		mnem := OpCVTSI2SS
		if sdBit {
			mnem = OpCVTSI2SD
		} else if !ssBit {
			return Inst{}, ErrBadEncoding
		}
		srcW := 4
		if d.rexW() {
			srcW = 8
		}
		reg, rm, err := d.modRM(srcW, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: mnem, Width: srcW, Args: []Operand{R(XMM(reg)), rm}}, nil
	case 0x2C: // cvttss2si / cvttsd2si
		mnem := OpCVTTSS2SI
		if sdBit {
			mnem = OpCVTTSD2SI
		} else if !ssBit {
			return Inst{}, ErrBadEncoding
		}
		dstW := 4
		if d.rexW() {
			dstW = 8
		}
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: mnem, Width: dstW, Args: []Operand{R(GPR(reg, dstW)), rm}}, nil
	case 0x2E: // ucomiss / ucomisd
		mnem, w := OpUCOMISS, 4
		if d.opSize {
			mnem, w = OpUCOMISD, 8
		}
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: mnem, Width: w, Args: []Operand{R(XMM(reg)), rm}}, nil
	case 0x57: // xorps
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpXORPS, Width: 16, Args: []Operand{R(XMM(reg)), rm}}, nil
	case 0x28, 0x29: // movaps load/store
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		x := R(XMM(reg))
		if op == 0x28 {
			return Inst{Op: OpMOVAPS, Width: 16, Args: []Operand{x, rm}}, nil
		}
		return Inst{Op: OpMOVAPS, Width: 16, Args: []Operand{rm, x}}, nil
	case 0x6E, 0x7E: // movq xmm ↔ r/m64 (66 prefix + REX.W)
		if !d.opSize || !d.rexW() {
			return Inst{}, ErrBadEncoding
		}
		reg, rm, err := d.modRM(8, false)
		if err != nil {
			return Inst{}, err
		}
		x := R(XMM(reg))
		if op == 0x6E {
			return Inst{Op: OpMOVQX, Width: 8, Args: []Operand{x, rm}}, nil
		}
		return Inst{Op: OpMOVQX, Width: 8, Args: []Operand{rm, x}}, nil
	case 0xC6: // shufps xmm, xmm/m128, imm8
		if d.opSize || ssBit || sdBit {
			return Inst{}, ErrBadEncoding
		}
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		imm, err := d.next()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpSHUFPS, Width: 16,
			Args: []Operand{R(XMM(reg)), rm, Imm{Value: int64(imm)}}}, nil
	case 0xEF: // pxor
		if !d.opSize {
			return Inst{}, ErrBadEncoding
		}
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpPXOR, Width: 16, Args: []Operand{R(XMM(reg)), rm}}, nil
	case 0x5F: // maxps (the scalar maxss/maxsd forms are never emitted)
		if d.opSize || ssBit || sdBit {
			return Inst{}, ErrBadEncoding
		}
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpMAXPS, Width: 16, Args: []Operand{R(XMM(reg)), rm}}, nil
	case 0x58, 0x59, 0x5C, 0x5E, 0x5A:
		var mnem Op
		var w int
		switch {
		case ssBit:
			w = 4
			switch op {
			case 0x58:
				mnem = OpADDSS
			case 0x59:
				mnem = OpMULSS
			case 0x5C:
				mnem = OpSUBSS
			case 0x5E:
				mnem = OpDIVSS
			case 0x5A:
				mnem, w = OpCVTSS2SD, 4
			}
		case sdBit:
			w = 8
			switch op {
			case 0x58:
				mnem = OpADDSD
			case 0x59:
				mnem = OpMULSD
			case 0x5C:
				mnem = OpSUBSD
			case 0x5E:
				mnem = OpDIVSD
			case 0x5A:
				mnem, w = OpCVTSD2SS, 8
			}
		default:
			// No rep prefix: packed single (no 0x66 packed-double forms).
			if d.opSize {
				return Inst{}, ErrBadEncoding
			}
			w = 16
			switch op {
			case 0x58:
				mnem = OpADDPS
			case 0x59:
				mnem = OpMULPS
			default:
				return Inst{}, ErrBadEncoding
			}
		}
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: mnem, Width: w, Args: []Operand{R(XMM(reg)), rm}}, nil
	}
	return Inst{}, fmt.Errorf("two-byte opcode 0f %#02x: %w", op, ErrBadEncoding)
}

// vex decodes a VEX-prefixed instruction. The VEX payload bytes carry the
// inverted R/X/B extension bits; they are synthesized into d.rex so modRM
// works unchanged, and L promotes XMM operands to YMM.
func (d *decoder) vex(prefix byte) (Inst, error) {
	var mmap, pp byte
	var vvvv int
	var l bool
	d.rex, d.hasREX = 0x40, true
	if prefix == 0xC5 {
		b, err := d.next()
		if err != nil {
			return Inst{}, err
		}
		mmap = 1
		if b&0x80 == 0 {
			d.rex |= 4 // R
		}
		vvvv = int(^b>>3) & 0xF
		l = b&4 != 0
		pp = b & 3
	} else {
		b1, err := d.next()
		if err != nil {
			return Inst{}, err
		}
		b2, err := d.next()
		if err != nil {
			return Inst{}, err
		}
		mmap = b1 & 0x1F
		if b1&0x80 == 0 {
			d.rex |= 4 // R
		}
		if b1&0x40 == 0 {
			d.rex |= 2 // X
		}
		if b1&0x20 == 0 {
			d.rex |= 1 // B
		}
		if b2&0x80 != 0 {
			return Inst{}, ErrBadEncoding // VEX.W set — none of our ops use it
		}
		vvvv = int(^b2>>3) & 0xF
		l = b2&4 != 0
		pp = b2 & 3
	}
	op, err := d.next()
	if err != nil {
		return Inst{}, err
	}

	width := 16
	if l {
		width = 32
	}
	vec := func(n int) Reg {
		if l {
			return YMM(n)
		}
		return XMM(n)
	}
	// modRM decodes register r/m operands as XMM; promote under L.
	vecRM := func(rm Operand) Operand {
		if r, ok := rm.(RegArg); ok && l {
			return R(YMM(r.Reg.Num()))
		}
		return rm
	}

	if mmap == 2 && pp == 1 && op == 0x18 {
		// vbroadcastss (memory source on AVX1).
		if vvvv != 0 {
			return Inst{}, ErrBadEncoding
		}
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		if _, ok := rm.(Mem); !ok {
			return Inst{}, ErrBadEncoding
		}
		return Inst{Op: OpVBROADCASTSS, Width: width, Args: []Operand{R(vec(reg)), rm}}, nil
	}
	if mmap != 1 || pp != 0 {
		return Inst{}, fmt.Errorf("vex map %d pp %d op %#02x: %w", mmap, pp, op, ErrBadEncoding)
	}

	switch op {
	case 0x77:
		if l || vvvv != 0 {
			return Inst{}, ErrBadEncoding // vzeroall / bad vvvv
		}
		return Inst{Op: OpVZEROUPPER}, nil
	case 0x10, 0x11:
		if vvvv != 0 {
			return Inst{}, ErrBadEncoding
		}
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		x := R(vec(reg))
		if op == 0x10 {
			return Inst{Op: OpVMOVUPS, Width: width, Args: []Operand{x, vecRM(rm)}}, nil
		}
		return Inst{Op: OpVMOVUPS, Width: width, Args: []Operand{vecRM(rm), x}}, nil
	case 0x57, 0x58, 0x59:
		var mnem Op
		switch op {
		case 0x57:
			mnem = OpVXORPS
		case 0x58:
			mnem = OpVADDPS
		case 0x59:
			mnem = OpVMULPS
		}
		reg, rm, err := d.modRM(0, true)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: mnem, Width: width,
			Args: []Operand{R(vec(reg)), R(vec(vvvv)), vecRM(rm)}}, nil
	}
	return Inst{}, fmt.Errorf("vex opcode %#02x: %w", op, ErrBadEncoding)
}

// evex decodes the EVEX forms encodeEVEX emits: 512-bit vmovups,
// vbroadcastss (memory source), vmulps and vaddps on zmm0-15, with no
// opmask, zeroing, embedded broadcast or rounding. Anything else under the
// 0x62 escape is rejected. As in vex, the inverted R/X/B bits become
// d.rex so modRM works unchanged.
func (d *decoder) evex() (Inst, error) {
	var p [3]byte
	for i := range p {
		b, err := d.next()
		if err != nil {
			return Inst{}, err
		}
		p[i] = b
	}
	// Reserved P0 bits, R' (zmm16+), the fixed P1 bit, W, and in P2
	// z, L'L other than 512, b, V' (zmm16+) and aaa.
	if p[0]&0x1C != 0x10 || p[1]&0x84 != 0x04 || p[2] != 0x48 {
		return Inst{}, ErrBadEncoding
	}
	mmap, pp := p[0]&3, p[1]&3
	vvvv := int(^p[1]>>3) & 0xF
	d.rex, d.hasREX = 0x40, true
	if p[0]&0x80 == 0 {
		d.rex |= 4 // R
	}
	if p[0]&0x40 == 0 {
		d.rex |= 2 // X
	}
	if p[0]&0x20 == 0 {
		d.rex |= 1 // B
	}
	op, err := d.next()
	if err != nil {
		return Inst{}, err
	}

	var mnem Op
	d.disp8N = 64
	switch {
	case mmap == 2 && pp == 1 && op == 0x18:
		mnem, d.disp8N = OpVBROADCASTSS, 4
	case mmap == 1 && pp == 0 && (op == 0x10 || op == 0x11):
		mnem = OpVMOVUPS
	case mmap == 1 && pp == 0 && op == 0x58:
		mnem = OpVADDPS
	case mmap == 1 && pp == 0 && op == 0x59:
		mnem = OpVMULPS
	default:
		return Inst{}, fmt.Errorf("evex map %d pp %d op %#02x: %w", mmap, pp, op, ErrBadEncoding)
	}
	reg, rm, err := d.modRM(0, true)
	if err != nil {
		return Inst{}, err
	}
	if r, ok := rm.(RegArg); ok {
		// For a register r/m, EVEX.X is the register's fifth bit.
		if d.rexX() != 0 || mnem == OpVBROADCASTSS {
			return Inst{}, ErrBadEncoding
		}
		rm = R(ZMM(r.Reg.Num()))
	}
	x := R(ZMM(reg))
	switch {
	case mnem == OpVADDPS || mnem == OpVMULPS:
		return Inst{Op: mnem, Width: 64, Args: []Operand{x, R(ZMM(vvvv)), rm}}, nil
	case vvvv != 0:
		return Inst{}, ErrBadEncoding
	case op == 0x11:
		return Inst{Op: mnem, Width: 64, Args: []Operand{rm, x}}, nil
	}
	return Inst{Op: mnem, Width: 64, Args: []Operand{x, rm}}, nil
}

func (d *decoder) x87(op byte) (Inst, error) {
	b, err := d.peek()
	if err != nil {
		return Inst{}, err
	}
	if b >= 0xC0 { // register form
		d.pos++
		switch {
		case op == 0xD9 && b >= 0xC0 && b <= 0xC7:
			return Inst{Op: OpFLD, Args: []Operand{R(ST(int(b - 0xC0)))}}, nil
		case op == 0xD9 && b == 0xC9:
			return Inst{Op: OpFXCH}, nil
		case op == 0xD9 && b == 0xE0:
			return Inst{Op: OpFCHS}, nil
		case op == 0xDD && b >= 0xD8 && b <= 0xDF:
			return Inst{Op: OpFSTP, Args: []Operand{R(ST(int(b - 0xD8)))}}, nil
		case op == 0xDE && b == 0xC1:
			return Inst{Op: OpFADDP}, nil
		case op == 0xDE && b == 0xC9:
			return Inst{Op: OpFMULP}, nil
		case op == 0xDE && b == 0xE9:
			return Inst{Op: OpFSUBP}, nil
		case op == 0xDE && b == 0xF9:
			return Inst{Op: OpFDIVP}, nil
		case op == 0xDF && b == 0xE9:
			return Inst{Op: OpFUCOMIP}, nil
		}
		return Inst{}, fmt.Errorf("x87 %#02x %#02x: %w", op, b, ErrBadEncoding)
	}
	reg, rm, err := d.modRM(4, false)
	if err != nil {
		return Inst{}, err
	}
	m, ok := rm.(Mem)
	if !ok {
		return Inst{}, ErrBadEncoding
	}
	type key struct {
		op    byte
		digit int
	}
	forms := map[key]struct {
		mnem  Op
		width int
	}{
		{0xD9, 0}: {OpFLD, 4}, {0xDD, 0}: {OpFLD, 8}, {0xDB, 5}: {OpFLD, 10},
		{0xD9, 3}: {OpFSTP, 4}, {0xDD, 3}: {OpFSTP, 8}, {0xDB, 7}: {OpFSTP, 10},
		{0xDF, 0}: {OpFILD, 2}, {0xDB, 0}: {OpFILD, 4}, {0xDF, 5}: {OpFILD, 8},
	}
	f, ok := forms[key{op, reg & 7}]
	if !ok {
		return Inst{}, fmt.Errorf("x87 mem form %#02x /%d: %w", op, reg&7, ErrBadEncoding)
	}
	return Inst{Op: f.mnem, Width: f.width, Args: []Operand{m}}, nil
}
