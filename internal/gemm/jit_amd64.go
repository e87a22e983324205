//go:build amd64 && linux && !purego

package gemm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"unsafe"

	"repro/internal/asm"
)

// The JIT backend assembles its GEMM microkernels at first use with the
// repo's own x86-64 encoder (internal/asm) instead of shipping
// precompiled assembly. The float32 microkernel comes in three variants
// of one MR×NR tile: AVX-512 (EVEX, one zmm accumulator per row), AVX
// (VEX, two ymm per row) and SSE (two passes of four-lane vectors, the
// only one that needs no CPUID gating because SSE2 is part of the amd64
// ABI). Runtime feature detection — JIT-compiled CPUID/XGETBV stubs —
// picks the widest variant the CPU and OS support. The int8 and ReLU
// kernels are SSE only. All generated code lives in an anonymous mmap
// that is flipped from RW to RX before the first call (W^X: the buffer is
// never writable and executable at once).
//
// Kernel ABI: arguments arrive in DI, SI, DX, CX, R8, R9 via the
// jitcall6 trampoline (jitcall_amd64.s). Kernels may clobber RAX-RDX,
// RSI, RDI and R8-R13 plus vector registers 0-14; they must preserve RSP
// and must not touch RBP (without saving), R14 (the goroutine pointer in
// the Go register ABI), R15 or X15/YMM15/ZMM15 (Go's zero register), and
// kernels that use AVX end with vzeroupper.
//
// Safety: a kernel runs as straight-line machine code the Go runtime
// knows nothing about. Asynchronous preemption is safe — the runtime
// refuses to preempt at a PC it cannot look up and retries later — and
// the trampoline is NOSPLIT so no stack growth can occur mid-call. Before
// a kernel is selected it must reproduce the Go kernel's output
// bit-for-bit on a self-test; a float32 variant that fails falls back to
// the next narrower one, and any other failure leaves the blocked Go
// backend in charge.

// jitcall6 invokes code with the six operands in DI, SI, DX, CX, R8, R9.
// Implemented in jitcall_amd64.s.
func jitcall6(code, a0, a1, a2, a3, a4, a5 uintptr)

// jitKernel is one executable buffer plus its entry point.
type jitKernel struct {
	buf   []byte // RX mmap backing; held to keep the mapping addressable
	entry uintptr
}

// callF32 runs the MR×NR float32 microkernel with microKernelGo's
// contract: C[0:MR][0:NR] += A·B over kc steps, where A's rows are lda
// apart and b is a packed kc×NR strip.
func (k *jitKernel) callF32(kc int, a []float32, lda int, b, c []float32, ldc int) {
	// The machine code checks no bounds; these reslices panic instead.
	a = a[:(mr-1)*lda+kc]
	b = b[:kc*nr]
	c = c[:(mr-1)*ldc+nr]
	jitcall6(k.entry,
		uintptr(unsafe.Pointer(&a[0])),
		uintptr(unsafe.Pointer(&b[0])),
		uintptr(unsafe.Pointer(&c[0])),
		uintptr(kc), uintptr(ldc*4), uintptr(lda*4))
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
	runtime.KeepAlive(c)
}

// callInt8 runs the whole int8 GEMM: C[m×n] += A[m×k]·B[n×k]ᵀ on
// contiguous matrices.
func (k *jitKernel) callInt8(a, b []int8, c []int32, m, n, kk int) {
	jitcall6(k.entry,
		uintptr(unsafe.Pointer(&a[0])),
		uintptr(unsafe.Pointer(&b[0])),
		uintptr(unsafe.Pointer(&c[0])),
		uintptr(m), uintptr(n), uintptr(kk))
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
	runtime.KeepAlive(c)
}

// callReLU runs the element-wise max(x, 0) kernel over x, whose length
// must be a positive multiple of reluBlock.
func (k *jitKernel) callReLU(x []float32) {
	jitcall6(k.entry,
		uintptr(unsafe.Pointer(&x[0])),
		uintptr(len(x)), 0, 0, 0, 0)
	runtime.KeepAlive(x)
}

func (k *jitKernel) release() {
	if k != nil && k.buf != nil {
		_ = syscall.Munmap(k.buf)
		k.buf, k.entry = nil, 0
	}
}

var jitKernels struct {
	f32  *jitKernel
	i8   *jitKernel
	relu *jitKernel
}

var (
	jitOnce   sync.Once
	jitReason = "jit not initialized"
)

// jitAvailable builds and self-tests the kernels on first call and
// reports whether the JIT backend may be selected.
func jitAvailable() bool {
	jitOnce.Do(initJIT)
	return jitKernels.f32 != nil
}

func jitUnavailableReason() string {
	jitOnce.Do(initJIT)
	return jitReason
}

// f32Variants lists the float32 microkernels, widest first.
var f32Variants = []struct {
	name   string
	usable func(cpuFeatures) bool
	build  func() (*asm.Unit, error)
}{
	{"avx512", func(f cpuFeatures) bool { return f.avx512 }, buildF32AVX512Unit},
	{"avx", func(f cpuFeatures) bool { return f.avx }, buildF32AVXUnit},
	{"sse", func(cpuFeatures) bool { return true }, buildF32SSEUnit},
}

// hostF32Variants names the float32 kernel variants this CPU and OS can
// run, widest first.
func hostF32Variants() []string {
	cpu := detectCPU()
	var names []string
	for _, v := range f32Variants {
		if v.usable(cpu) {
			names = append(names, v.name)
		}
	}
	return names
}

// buildF32Variant assembles the named float32 kernel and proves it
// against microKernelGo. initJIT takes the first variant that passes;
// tests build every variant the host supports.
func buildF32Variant(name string) (*jitKernel, error) {
	for _, v := range f32Variants {
		if v.name != name {
			continue
		}
		k, err := emitKernel(v.build())
		if err != nil {
			return nil, err
		}
		if err := selfTestF32(k); err != nil {
			k.release()
			return nil, err
		}
		return k, nil
	}
	return nil, fmt.Errorf("unknown f32 kernel variant %q", name)
}

func initJIT() {
	var f32 *jitKernel
	var variant string
	var failed []string
	for _, name := range hostF32Variants() {
		k, err := buildF32Variant(name)
		if err != nil {
			failed = append(failed, name+": "+err.Error())
			continue
		}
		f32, variant = k, name
		break
	}
	if f32 == nil {
		jitReason = "f32 kernel: " + strings.Join(failed, "; ")
		return
	}
	i8, err := emitKernel(buildInt8Unit())
	if err != nil {
		f32.release()
		jitReason = "int8 kernel: " + err.Error()
		return
	}
	relu, err := emitKernel(buildReLUUnit())
	if err != nil {
		f32.release()
		i8.release()
		jitReason = "relu kernel: " + err.Error()
		return
	}
	if err := selfTestInt8ReLU(i8, relu); err != nil {
		f32.release()
		i8.release()
		relu.release()
		jitReason = "self-test: " + err.Error()
		return
	}
	jitKernels.f32, jitKernels.i8, jitKernels.relu = f32, i8, relu
	jitVariant = variant
	jitReason = "available (" + variant + ")"
}

// cpuFeatures is what the float32 kernel variants need from the CPU and
// the OS.
type cpuFeatures struct {
	avx    bool // AVX, with XMM and YMM state enabled
	avx512 bool // AVX512F, with the opmask and ZMM state enabled too
}

// detectCPU probes the CPU with JIT-compiled CPUID and XGETBV stubs:
// CPUID leaf 1 for the AVX and OSXSAVE bits, XGETBV for the state
// components the OS saves in XCR0 (bits 1-2 for XMM/YMM; 5-7 for the
// opmask and the two halves of the ZMM file), and CPUID leaf 7 for
// AVX512F. Any failure reports no extensions, leaving SSE.
func detectCPU() (f cpuFeatures) {
	stub, err := emitKernel(buildCPUIDUnit())
	if err != nil {
		return f
	}
	defer stub.release()
	cpuid := func(leaf uint32) (r [4]uint32) {
		jitcall6(stub.entry, uintptr(unsafe.Pointer(&r[0])), uintptr(leaf), 0, 0, 0, 0)
		return r
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid(1)[2]&(osxsave|avx) != osxsave|avx {
		return f
	}
	xgetbv, err := emitKernel(buildXGETBVUnit())
	if err != nil {
		return f
	}
	defer xgetbv.release()
	var xcr0 [1]uint32
	jitcall6(xgetbv.entry, uintptr(unsafe.Pointer(&xcr0[0])), 0, 0, 0, 0, 0)
	runtime.KeepAlive(&xcr0)
	f.avx = xcr0[0]&0x6 == 0x6
	const avx512f = 1 << 16
	f.avx512 = f.avx && xcr0[0]&0xE6 == 0xE6 && cpuid(0)[0] >= 7 && cpuid(7)[1]&avx512f != 0
	return f
}

// buildCPUIDUnit emits a stub that runs CPUID with EAX = esi, ECX = 0 and
// stores EAX, EBX, ECX, EDX to [rdi]. CPUID clobbers EAX-EDX; all four
// are in the kernel clobber set.
func buildCPUIDUnit() (*asm.Unit, error) {
	u := &asm.Unit{}
	u.AddOp(asm.OpMOV, 0, asm.R(asm.EAX), asm.R(asm.ESI))
	u.AddOp(asm.OpXOR, 0, asm.R(asm.ECX), asm.R(asm.ECX))
	u.AddOp(asm.OpCPUID, 0)
	for i, reg := range []asm.Reg{asm.EAX, asm.EBX, asm.ECX, asm.EDX} {
		u.AddOp(asm.OpMOV, 0, asm.MemD(asm.RDI, int32(4*i)), asm.R(reg))
	}
	u.AddOp(asm.OpRET, 0)
	return u, nil
}

// buildXGETBVUnit emits a stub that stores the low word of XCR0 to [rdi].
// Only valid to run once CPUID reports OSXSAVE.
func buildXGETBVUnit() (*asm.Unit, error) {
	u := &asm.Unit{}
	u.AddOp(asm.OpXOR, 0, asm.R(asm.ECX), asm.R(asm.ECX))
	u.AddOp(asm.OpXGETBV, 0)
	u.AddOp(asm.OpMOV, 0, asm.MemD(asm.RDI, 0), asm.R(asm.EAX))
	u.AddOp(asm.OpRET, 0)
	return u, nil
}

// emitKernel assembles a unit and maps it into an executable buffer:
// anonymous RW pages, copy the code in, then mprotect to RX.
func emitKernel(u *asm.Unit, buildErr error) (*jitKernel, error) {
	if buildErr != nil {
		return nil, buildErr
	}
	a, err := u.Assemble(0, nil)
	if err != nil {
		return nil, err
	}
	buf, err := syscall.Mmap(-1, 0, len(a.Code),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap: %w", err)
	}
	copy(buf, a.Code)
	if err := syscall.Mprotect(buf, syscall.PROT_READ|syscall.PROT_EXEC); err != nil {
		_ = syscall.Munmap(buf)
		return nil, fmt.Errorf("mprotect: %w", err)
	}
	return &jitKernel{buf: buf, entry: uintptr(unsafe.Pointer(&buf[0]))}, nil
}

// The float32 kernels share one entry contract, microKernelGo's:
//
//	DI = A (row 0 of the quad), SI = B strip (kc×NR packed),
//	DX = C, CX = kc (> 0), R8 = C's row stride in bytes,
//	R9 = A's row stride in bytes.
//
// A is read in place: with R10 = 3·R9 the four rows of k-step l sit at
// DI, DI+R9, DI+2·R9 and DI+R10, each plus 4·l. Every variant sums each
// element from zero in ascending k with a separate multiply and add — no
// FMA, which would round once instead of twice — and then adds the sum to
// C, exactly as microKernelGo does, so results are bitwise identical.

// aRow addresses row row of the A quad at byte offset disp.
func aRow(row int, disp int32) asm.Mem {
	switch row {
	case 0:
		return asm.MemD(asm.RDI, disp)
	case 1:
		return asm.MemSIB(asm.RDI, asm.R9, 1, disp)
	case 2:
		return asm.MemSIB(asm.RDI, asm.R9, 2, disp)
	default:
		return asm.MemSIB(asm.RDI, asm.R10, 1, disp)
	}
}

// emitKLoop emits the kc loop shared by the float32 kernels, unrolled 2×
// with a one-step remainder. step(s) emits k-step s of an iteration,
// reading A at byte offset 4·s and B at 4·NR·s; DI and SI advance once
// per iteration, and R11 counts. CX is preserved. Labels carry tag so one
// unit can hold several loops.
func emitKLoop(u *asm.Unit, tag string, step func(s int32)) {
	op := func(o asm.Op, w int, args ...asm.Operand) { u.AddOp(o, w, args...) }
	r := asm.R
	imm := func(v int64) asm.Imm { return asm.Imm{Value: v} }
	op(asm.OpMOV, 0, r(asm.R11), r(asm.RCX)) // r11 = kc >> 1 (pair count)
	op(asm.OpSHR, 0, r(asm.R11), imm(1))
	op(asm.OpJE, 0, asm.Sym{Name: tag + "k_rem"})
	u.Label(tag + "k2_loop")
	step(0)
	step(1)
	op(asm.OpADD, 0, r(asm.RDI), imm(2*4))
	op(asm.OpADD, 0, r(asm.RSI), imm(2*4*nr))
	op(asm.OpDEC, 0, r(asm.R11))
	op(asm.OpJNE, 0, asm.Sym{Name: tag + "k2_loop"})
	u.Label(tag + "k_rem")
	op(asm.OpTEST, 0, r(asm.ECX), imm(1))
	op(asm.OpJE, 0, asm.Sym{Name: tag + "k_done"})
	step(0)
	u.Label(tag + "k_done")
}

// buildF32AVX512Unit emits the float32 microkernel with 512-bit EVEX
// instructions: one zmm accumulator per row (zmm0-3) covers all NR = 16
// columns. A k-step loads the B row once (zmm4), then per row broadcasts
// the A scalar straight from memory (zmm5), multiplies and adds. The
// accumulators are zeroed with the VEX.128 vxorps, which clears a whole
// zmm register and needs no AVX512DQ.
func buildF32AVX512Unit() (*asm.Unit, error) {
	u := &asm.Unit{}
	op := func(o asm.Op, w int, args ...asm.Operand) { u.AddOp(o, w, args...) }
	r := asm.R
	for row := 0; row < mr; row++ {
		x := r(asm.XMM(row))
		op(asm.OpVXORPS, 16, x, x, x)
	}
	op(asm.OpLEA, 0, r(asm.R10), asm.MemSIB(asm.R9, asm.R9, 2, 0))
	emitKLoop(u, "", func(s int32) {
		op(asm.OpVMOVUPS, 64, r(asm.ZMM4), asm.MemD(asm.RSI, 4*nr*s))
		for row := 0; row < mr; row++ {
			op(asm.OpVBROADCASTSS, 64, r(asm.ZMM5), aRow(row, 4*s))
			op(asm.OpVMULPS, 64, r(asm.ZMM5), r(asm.ZMM5), r(asm.ZMM4))
			op(asm.OpVADDPS, 64, r(asm.ZMM(row)), r(asm.ZMM(row)), r(asm.ZMM5))
		}
	})
	// C += accumulators, one row at a time; DX walks by the row stride.
	for row := 0; row < mr; row++ {
		op(asm.OpVMOVUPS, 64, r(asm.ZMM4), asm.MemD(asm.RDX, 0))
		op(asm.OpVADDPS, 64, r(asm.ZMM4), r(asm.ZMM4), r(asm.ZMM(row)))
		op(asm.OpVMOVUPS, 64, asm.MemD(asm.RDX, 0), r(asm.ZMM4))
		op(asm.OpADD, 0, r(asm.RDX), r(asm.R8))
	}
	op(asm.OpVZEROUPPER, 0)
	op(asm.OpRET, 0)
	return u, nil
}

// buildF32AVXUnit emits the float32 microkernel with 256-bit VEX
// instructions: two ymm accumulators per row (ymm0-7). A k-step loads the
// B row once (ymm8, ymm9), then per row broadcasts the A scalar from
// memory (ymm10) and multiplies and adds into both halves.
func buildF32AVXUnit() (*asm.Unit, error) {
	u := &asm.Unit{}
	op := func(o asm.Op, w int, args ...asm.Operand) { u.AddOp(o, w, args...) }
	r := asm.R
	for x := 0; x < 2*mr; x++ {
		y := r(asm.YMM(x))
		op(asm.OpVXORPS, 32, y, y, y)
	}
	op(asm.OpLEA, 0, r(asm.R10), asm.MemSIB(asm.R9, asm.R9, 2, 0))
	emitKLoop(u, "", func(s int32) {
		op(asm.OpVMOVUPS, 32, r(asm.YMM8), asm.MemD(asm.RSI, 4*nr*s))
		op(asm.OpVMOVUPS, 32, r(asm.YMM9), asm.MemD(asm.RSI, 4*nr*s+32))
		for row := 0; row < mr; row++ {
			op(asm.OpVBROADCASTSS, 32, r(asm.YMM10), aRow(row, 4*s))
			op(asm.OpVMULPS, 32, r(asm.YMM11), r(asm.YMM10), r(asm.YMM8))
			op(asm.OpVADDPS, 32, r(asm.YMM(2*row)), r(asm.YMM(2*row)), r(asm.YMM11))
			op(asm.OpVMULPS, 32, r(asm.YMM10), r(asm.YMM10), r(asm.YMM9))
			op(asm.OpVADDPS, 32, r(asm.YMM(2*row+1)), r(asm.YMM(2*row+1)), r(asm.YMM10))
		}
	})
	for row := 0; row < mr; row++ {
		for h := 0; h < 2; h++ {
			op(asm.OpVMOVUPS, 32, r(asm.YMM8), asm.MemD(asm.RDX, int32(32*h)))
			op(asm.OpVADDPS, 32, r(asm.YMM8), r(asm.YMM8), r(asm.YMM(2*row+h)))
			op(asm.OpVMOVUPS, 32, asm.MemD(asm.RDX, int32(32*h)), r(asm.YMM8))
		}
		op(asm.OpADD, 0, r(asm.RDX), r(asm.R8))
	}
	op(asm.OpVZEROUPPER, 0)
	op(asm.OpRET, 0)
	return u, nil
}

// buildF32SSEUnit emits the float32 microkernel with four-lane SSE
// instructions. Sixteen columns would need more accumulators than the
// XMM file holds, so the tile runs as two 4×8 halves, columns 0-7 and
// then 8-15, each with eight accumulators (xmm0-7). A k-step loads the
// half's B row (xmm8, xmm9), then per row loads the A scalar, splats it
// with shufps (xmm10) and multiplies and adds into both vectors. AX, BX
// and R12 keep the entry A, B and C pointers for the second half.
func buildF32SSEUnit() (*asm.Unit, error) {
	u := &asm.Unit{}
	op := func(o asm.Op, w int, args ...asm.Operand) { u.AddOp(o, w, args...) }
	r := asm.R
	imm := func(v int64) asm.Imm { return asm.Imm{Value: v} }
	op(asm.OpLEA, 0, r(asm.R10), asm.MemSIB(asm.R9, asm.R9, 2, 0))
	op(asm.OpMOV, 0, r(asm.RAX), r(asm.RDI))
	op(asm.OpMOV, 0, r(asm.RBX), r(asm.RSI))
	op(asm.OpMOV, 0, r(asm.R12), r(asm.RDX))
	for h := int32(0); h < 2; h++ {
		for x := 0; x < 2*mr; x++ {
			op(asm.OpXORPS, 16, r(asm.XMM(x)), r(asm.XMM(x)))
		}
		op(asm.OpMOV, 0, r(asm.RDI), r(asm.RAX))
		op(asm.OpLEA, 0, r(asm.RSI), asm.MemD(asm.RBX, 32*h))
		op(asm.OpLEA, 0, r(asm.RDX), asm.MemD(asm.R12, 32*h))
		emitKLoop(u, fmt.Sprintf("h%d_", h), func(s int32) {
			op(asm.OpMOVUPS, 16, r(asm.XMM8), asm.MemD(asm.RSI, 4*nr*s))
			op(asm.OpMOVUPS, 16, r(asm.XMM9), asm.MemD(asm.RSI, 4*nr*s+16))
			for row := 0; row < mr; row++ {
				op(asm.OpMOVSS, 4, r(asm.XMM10), aRow(row, 4*s))
				op(asm.OpSHUFPS, 16, r(asm.XMM10), r(asm.XMM10), imm(0))
				op(asm.OpMOVAPS, 16, r(asm.XMM11), r(asm.XMM10))
				op(asm.OpMULPS, 16, r(asm.XMM11), r(asm.XMM8))
				op(asm.OpADDPS, 16, r(asm.XMM(2*row)), r(asm.XMM11))
				op(asm.OpMULPS, 16, r(asm.XMM10), r(asm.XMM9))
				op(asm.OpADDPS, 16, r(asm.XMM(2*row+1)), r(asm.XMM10))
			}
		})
		for row := 0; row < mr; row++ {
			for v := 0; v < 2; v++ {
				op(asm.OpMOVUPS, 16, r(asm.XMM8), asm.MemD(asm.RDX, int32(16*v)))
				op(asm.OpADDPS, 16, r(asm.XMM8), r(asm.XMM(2*row+v)))
				op(asm.OpMOVUPS, 16, asm.MemD(asm.RDX, int32(16*v)), r(asm.XMM8))
			}
			op(asm.OpADD, 0, r(asm.RDX), r(asm.R8))
		}
	}
	op(asm.OpRET, 0)
	return u, nil
}

// buildInt8Unit emits the full int8 GEMM loop nest.
//
// Entry: DI=a (m×k), SI=b (n×k), DX=c (m×n int32), CX=m, R8=n, R9=k, all
// dimensions > 0. The inner dot product widens each int8 pair with movsx,
// multiplies in 32 bits and accumulates in EBP (saved/restored around the
// body), with the k loop unrolled 4× plus a scalar remainder. C walks
// linearly because rows are iterated in order with unit stride.
func buildInt8Unit() (*asm.Unit, error) {
	u := &asm.Unit{}
	op := func(o asm.Op, w int, args ...asm.Operand) { u.AddOp(o, w, args...) }
	r := asm.R
	imm := func(v int64) asm.Imm { return asm.Imm{Value: v} }
	madd := func(disp int32) { // accum += int32(a[l+disp]) * int32(b[l+disp])
		op(asm.OpMOVSX, 1, r(asm.EAX), asm.MemSIB(asm.RDI, asm.R11, 1, disp))
		op(asm.OpMOVSX, 1, r(asm.EBX), asm.MemSIB(asm.R13, asm.R11, 1, disp))
		op(asm.OpIMUL, 0, r(asm.EAX), r(asm.EBX))
		op(asm.OpADD, 0, r(asm.EBP), r(asm.EAX))
	}

	op(asm.OpPUSH, 0, r(asm.RBP))
	op(asm.OpMOV, 0, r(asm.R10), r(asm.R9)) // r10 = k &^ 3 (unrolled bound)
	op(asm.OpAND, 0, r(asm.R10), imm(-4))

	u.Label("i_loop")
	op(asm.OpXOR, 0, r(asm.R12), r(asm.R12)) // j = 0
	op(asm.OpMOV, 0, r(asm.R13), r(asm.RSI)) // bRow = b

	u.Label("j_loop")
	op(asm.OpXOR, 0, r(asm.EBP), r(asm.EBP)) // accum = 0
	op(asm.OpXOR, 0, r(asm.R11), r(asm.R11)) // l = 0
	op(asm.OpCMP, 0, r(asm.R11), r(asm.R10))
	op(asm.OpJGE, 0, asm.Sym{Name: "k_rem"})

	u.Label("k4_loop")
	for d := int32(0); d < 4; d++ {
		madd(d)
	}
	op(asm.OpADD, 0, r(asm.R11), imm(4))
	op(asm.OpCMP, 0, r(asm.R11), r(asm.R10))
	op(asm.OpJL, 0, asm.Sym{Name: "k4_loop"})

	u.Label("k_rem")
	op(asm.OpCMP, 0, r(asm.R11), r(asm.R9))
	op(asm.OpJGE, 0, asm.Sym{Name: "k_done"})
	u.Label("k1_loop")
	madd(0)
	op(asm.OpINC, 0, r(asm.R11))
	op(asm.OpCMP, 0, r(asm.R11), r(asm.R9))
	op(asm.OpJL, 0, asm.Sym{Name: "k1_loop"})

	u.Label("k_done")
	op(asm.OpADD, 4, asm.MemD(asm.RDX, 0), r(asm.EBP)) // c[i][j] += accum
	op(asm.OpADD, 0, r(asm.RDX), imm(4))
	op(asm.OpADD, 0, r(asm.R13), r(asm.R9)) // bRow += k
	op(asm.OpINC, 0, r(asm.R12))
	op(asm.OpCMP, 0, r(asm.R12), r(asm.R8))
	op(asm.OpJL, 0, asm.Sym{Name: "j_loop"})

	op(asm.OpADD, 0, r(asm.RDI), r(asm.R9)) // aRow += k
	op(asm.OpDEC, 0, r(asm.RCX))
	op(asm.OpJNE, 0, asm.Sym{Name: "i_loop"})
	op(asm.OpPOP, 0, r(asm.RBP))
	op(asm.OpRET, 0)
	return u, nil
}

// buildReLUUnit emits the element-wise ReLU kernel.
//
// Entry: DI=x, SI=element count (a positive multiple of reluBlock). The
// loop clamps four SSE vectors per pass with maxps against a zeroed
// register; maxps returns the source operand when the destination lane is
// NaN or both lanes are zero, so the result is exactly "keep v if v > 0,
// else +0" — the semantics reluPortable mirrors.
func buildReLUUnit() (*asm.Unit, error) {
	u := &asm.Unit{}
	op := func(o asm.Op, w int, args ...asm.Operand) { u.AddOp(o, w, args...) }
	r := asm.R
	imm := func(v int64) asm.Imm { return asm.Imm{Value: v} }

	op(asm.OpXORPS, 16, r(asm.XMM0), r(asm.XMM0))
	u.Label("loop")
	for v := 0; v < reluBlock/4; v++ {
		x := asm.XMM(1 + v)
		op(asm.OpMOVUPS, 16, r(x), asm.MemD(asm.RDI, int32(16*v)))
		op(asm.OpMAXPS, 16, r(x), r(asm.XMM0))
		op(asm.OpMOVUPS, 16, asm.MemD(asm.RDI, int32(16*v)), r(x))
	}
	op(asm.OpADD, 0, r(asm.RDI), imm(4*reluBlock))
	op(asm.OpSUB, 0, r(asm.RSI), imm(reluBlock))
	op(asm.OpJNE, 0, asm.Sym{Name: "loop"})
	op(asm.OpRET, 0)
	return u, nil
}

// selfTestRNG returns a deterministic generator of small floats with
// exact products, shared by the self-tests.
func selfTestRNG() func() float32 {
	rng := uint32(0x2545f491)
	return func() float32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return float32(int32(rng%2000)-1000) / 250
	}
}

// selfTestF32 proves a float32 kernel against microKernelGo on
// pseudo-random inputs: strided A and C (the gaps must come through
// untouched) and k counts that are odd, a single step, and longer than
// the unroll. Results must match bitwise.
func selfTestF32(f32 *jitKernel) error {
	next := selfTestRNG()
	for _, kc := range []int{1, 7, 96} {
		lda := kc + 5
		a := make([]float32, (mr-1)*lda+kc)
		b := make([]float32, kc*nr)
		for i := range a {
			a[i] = next()
		}
		for i := range b {
			b[i] = next()
		}
		const ldc = nr + 3
		got := make([]float32, (mr-1)*ldc+nr)
		want := make([]float32, len(got))
		for i := range got {
			got[i] = next()
			want[i] = got[i]
		}
		f32.callF32(kc, a, lda, b, got, ldc)
		microKernelGo(kc, a, lda, b, want, ldc)
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("kc=%d: c[%d] = %v, want %v", kc, i, got[i], want[i])
			}
		}
	}
	return nil
}

// selfTestInt8ReLU proves the int8 and ReLU kernels against the portable
// Go implementations; the int8 results must match exactly.
func selfTestInt8ReLU(i8, relu *jitKernel) error {
	next := selfTestRNG()
	{
		x := make([]float32, 4*reluBlock)
		want := make([]float32, len(x))
		for i := range x {
			x[i] = next()
		}
		x[0], x[1], x[2] = 0, float32(-0.0), -1e30 // edge lanes the RNG misses
		copy(want, x)
		relu.callReLU(x)
		reluPortable(want)
		for i := range x {
			if x[i] != want[i] {
				return fmt.Errorf("relu kernel: x[%d] = %v, want %v", i, x[i], want[i])
			}
		}
	}

	for _, dims := range [][3]int{{1, 1, 1}, {5, 7, 13}, {4, 8, 64}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := make([]int8, m*k)
		b := make([]int8, n*k)
		for i := range a {
			a[i] = int8(next() * 20)
		}
		for i := range b {
			b[i] = int8(next() * 20)
		}
		got := make([]int32, m*n)
		want := make([]int32, m*n)
		i8.callInt8(a, b, got, m, n, k)
		gemmInt8Portable(m, n, k, a, b, want)
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("int8 kernel %dx%dx%d: c[%d] = %d, want %d", m, n, k, i, got[i], want[i])
			}
		}
	}
	return nil
}
