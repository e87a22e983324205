//go:build !amd64 || !linux || purego

package gemm

// On platforms without the JIT (non-amd64, non-linux, or the purego build
// tag) the blocked Go backend is the fastest available. The stubs keep
// the dispatch sites in gemm.go/quant.go compiling; jitKernels fields stay
// nil so they are never invoked.

type jitKernel struct{}

func (*jitKernel) callF32(int, []float32, int, []float32, []float32, int) {}
func (*jitKernel) callInt8([]int8, []int8, []int32, int, int, int)        {}
func (*jitKernel) callReLU([]float32)                                     {}

var jitKernels struct {
	f32  *jitKernel
	i8   *jitKernel
	relu *jitKernel
}

func jitAvailable() bool { return false }

func jitUnavailableReason() string {
	return "requires linux/amd64 without the purego build tag"
}
