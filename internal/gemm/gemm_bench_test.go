package gemm

import (
	"fmt"
	"testing"
)

// Benchmarks over the CATI CNN's real GEMM shapes: conv1 and conv2 after
// im2col at batch 256 (m = batch × L) and the two dense layers.
var benchShapes = []struct {
	name    string
	m, n, k int
	transB  bool
}{
	{"conv1_b256", 256 * 21, 32, 288, true},
	{"conv2_b256", 256 * 10, 64, 96, true},
	{"dense1_b256", 256, 1024, 320, false},
	{"dense2_b256", 256, 64, 1024, false},
}

func BenchmarkSGEMM(b *testing.B) {
	for _, be := range []Backend{Portable, Blocked, JIT} {
		if be == JIT && !jitAvailable() {
			continue
		}
		for _, sh := range benchShapes {
			b.Run(fmt.Sprintf("%s/%s", be, sh.name), func(b *testing.B) {
				g := lcg(1)
				a := fill32(&g, sh.m*sh.k)
				bm := fill32(&g, sh.n*sh.k)
				c := make([]float32, sh.m*sh.n)
				ldb := sh.n
				if sh.transB {
					ldb = sh.k
				}
				ar := &Arena{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sgemm(be, sh.m, sh.n, sh.k, a, sh.k, bm, ldb, sh.transB, c, sh.n, ar)
				}
				flops := 2 * float64(sh.m) * float64(sh.n) * float64(sh.k)
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkGEMMInt8(b *testing.B) {
	for _, be := range []Backend{Portable, Blocked, JIT} {
		if be == JIT && !jitAvailable() {
			continue
		}
		sh := benchShapes[0]
		b.Run(fmt.Sprintf("%s/%s", be, sh.name), func(b *testing.B) {
			g := lcg(1)
			a := make([]int8, sh.m*sh.k)
			bm := make([]int8, sh.n*sh.k)
			for i := range a {
				a[i] = g.nextInt8()
			}
			for i := range bm {
				bm[i] = g.nextInt8()
			}
			c := make([]int32, sh.m*sh.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch {
				case be == JIT:
					jitKernels.i8.callInt8(a, bm, c, sh.m, sh.n, sh.k)
				case be == Portable:
					gemmInt8Portable(sh.m, sh.n, sh.k, a, bm, c)
				default:
					gemmInt8Blocked(sh.m, sh.n, sh.k, a, bm, c)
				}
			}
			ops := 2 * float64(sh.m) * float64(sh.n) * float64(sh.k)
			b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GOP/s")
		})
	}
}
