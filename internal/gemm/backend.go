package gemm

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Backend identifies one of the GEMM implementations. All backends compute
// the same results (see gemm_test.go and FuzzGEMMEquivalence); they differ
// only in speed and availability.
type Backend uint8

const (
	// Portable is the reference loop-nest implementation; always available.
	Portable Backend = iota
	// Blocked is the cache-blocked packed-panel implementation with a Go
	// microkernel; always available.
	Blocked
	// JIT is the blocked driver with microkernels emitted as machine code
	// by internal/asm at first use, for the widest instruction set the
	// host supports (see Variant). Only available on linux/amd64 builds
	// without the purego tag, and only after the generated code passes a
	// self-test against the Go kernels.
	JIT
)

func (b Backend) String() string {
	switch b {
	case Portable:
		return "portable"
	case Blocked:
		return "blocked"
	case JIT:
		return "jit"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// BackendNames lists the accepted arguments to Select, for flag help text.
func BackendNames() []string { return []string{"auto", "portable", "blocked", "jit"} }

// active stores Backend+1 so the zero value means "not yet chosen".
var active atomic.Int32

// Active returns the backend SGEMM and GEMMInt8 currently dispatch to.
// Before any Select call it resolves to the best available backend: JIT
// when the generated kernels pass their self-test, Blocked otherwise.
func Active() Backend {
	v := active.Load()
	if v == 0 {
		active.CompareAndSwap(0, int32(autoBackend())+1)
		v = active.Load()
	}
	return Backend(v - 1)
}

// Select chooses the GEMM backend by name: "auto", "portable", "blocked"
// or "jit". Selecting "jit" on a build or machine where the JIT kernels
// are unavailable returns an error and leaves the active backend
// unchanged; "auto" never fails and picks the best available.
func Select(name string) error {
	var b Backend
	switch name {
	case "", "auto":
		b = autoBackend()
	case "portable":
		b = Portable
	case "blocked":
		b = Blocked
	case "jit":
		if !jitAvailable() {
			return fmt.Errorf("gemm: jit backend unavailable (%s)", jitUnavailableReason())
		}
		b = JIT
	default:
		return fmt.Errorf("gemm: unknown kernel backend %q (want auto, portable, blocked or jit)", name)
	}
	active.Store(int32(b) + 1)
	publishBackendGauge(b)
	return nil
}

// jitVariant is the instruction set of the selected float32 JIT kernel,
// set once the JIT has come up.
var jitVariant = "none"

// Variant names the instruction set of the jit backend's float32
// microkernel: "avx512", "avx" or "sse", or "none" where the jit backend
// is unavailable. The choice is the widest one the CPU and OS support
// whose kernel passed its self-test; no flag overrides it.
func Variant() string {
	jitAvailable()
	return jitVariant
}

func autoBackend() Backend {
	if jitAvailable() {
		return JIT
	}
	return Blocked
}

// publishBackendGauge exposes the selected backend as
// cati_kernel_backend{backend=...,variant=...} with value 1 for the active
// backend and 0 for the rest, so dashboards can tell which math path is
// live. variant is "go" for the Go backends and Variant() for jit.
func publishBackendGauge(selected Backend) {
	if !telemetry.On() {
		return
	}
	for _, b := range []Backend{Portable, Blocked, JIT} {
		variant := "go"
		if b == JIT {
			variant = Variant()
		}
		g := telemetry.Default().Gauge("cati_kernel_backend",
			"Selected GEMM kernel backend (1 = active).", "backend", b.String(), "variant", variant)
		if b == selected {
			g.Set(1)
		} else {
			g.Set(0)
		}
	}
}

// kernelSecondsBuckets spans sub-microsecond microkernel batches up to
// whole-model GEMM calls on large batches.
var kernelSecondsBuckets = []float64{
	5e-6, 2e-5, 1e-4, 5e-4, 2e-3, 1e-2, 5e-2, 0.25, 1,
}

// kernelStart begins timing a kernel call; kernelObserve records it under
// cati_kernel_seconds{kernel,dtype}. Both are no-ops (and allocation-free)
// while telemetry is disabled, keeping the inference hot path clean.
func kernelStart() time.Time {
	if !telemetry.On() {
		return time.Time{}
	}
	return time.Now()
}

func kernelObserve(start time.Time, be Backend, dtype string) {
	if start.IsZero() {
		return
	}
	telemetry.Default().Histogram("cati_kernel_seconds",
		"GEMM kernel wall time by backend and element type.",
		kernelSecondsBuckets, "kernel", be.String(), "dtype", dtype).ObserveSince(start)
}
