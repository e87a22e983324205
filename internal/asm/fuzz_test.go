package asm

import "testing"

// FuzzDecode throws arbitrary bytes at the x86-64 decoder: every input
// is either decoded or rejected with an error — never a panic — and
// whatever decodes must survive the printer and operand accessors the
// pipeline calls on untrusted instructions.
func FuzzDecode(f *testing.F) {
	// Seed with real encodings: a frame prologue, a stack store, a
	// RIP-relative load, a REX-prefixed ALU op, and an EVEX load with
	// a compressed displacement.
	f.Add([]byte{0x55, 0x48, 0x89, 0xE5, 0xC9, 0xC3})
	f.Add([]byte{0x48, 0x89, 0x45, 0xF8})
	f.Add([]byte{0x48, 0x8B, 0x05, 0x00, 0x10, 0x00, 0x00})
	f.Add([]byte{0x48, 0x01, 0xD8})
	f.Add([]byte{0x62, 0xB2, 0x7D, 0x48, 0x18, 0x6C, 0x17, 0x7F}) // EVEX vbroadcastss
	f.Add([]byte{0x0F})                                           // truncated two-byte opcode
	f.Add([]byte{0x66, 0x48})                                     // prefixes with no opcode
	f.Fuzz(func(t *testing.T, code []byte) {
		in, err := Decode(code, 0x401000)
		if err == nil {
			_ = Print(&in)
			_, _ = in.MemArg()
		}
		// DecodeAll walks the same bytes instruction by instruction; it
		// must terminate and stay in bounds no matter where decode errors
		// land.
		if insts, err := DecodeAll(code, 0x401000); err == nil {
			for i := range insts {
				_ = Print(&insts[i])
			}
		}
	})
}
