//go:build amd64 && linux && !purego

package gemm

import "testing"

// TestJITF32Variants builds every float32 kernel variant this host can
// run, not just the one initJIT selected: each must pass the bitwise
// self-test against microKernelGo, and the whole equivalence suite must
// pass with it installed as the jit kernel.
func TestJITF32Variants(t *testing.T) {
	if !jitAvailable() {
		t.Skipf("jit unavailable: %s", jitUnavailableReason())
	}
	names := hostF32Variants()
	if len(names) == 0 || names[len(names)-1] != "sse" {
		t.Fatalf("host variants %v: sse must always be usable", names)
	}
	if Variant() != names[0] {
		t.Fatalf("Variant() = %q, want the widest host variant %q", Variant(), names[0])
	}
	selected := jitKernels.f32
	defer func() { jitKernels.f32 = selected }()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			k, err := buildF32Variant(name)
			if err != nil {
				t.Fatal(err)
			}
			defer k.release()
			jitKernels.f32 = k
			defer func() { jitKernels.f32 = selected }()
			checkSGEMMEquivalence(t)
		})
	}
}
