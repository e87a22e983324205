// Package gemm is the math core behind CATI's CNN inference: cache-blocked
// float32 matrix multiplication over a packed right-hand operand, an
// int8×int8→int32 quantized variant, a bump-allocator scratch Arena so
// steady-state inference never touches the heap, and — on amd64 — GEMM
// microkernels JIT-compiled at startup with the repo's own x86-64 encoder
// (internal/asm) into W^X executable buffers.
//
// Three backends implement the same contract and are proven equivalent by
// tests and the FuzzGEMMEquivalence target:
//
//   - portable: straightforward loop nests, the reference semantics.
//   - blocked: BLIS-style blocking — B packed into KC×NR strips (once per
//     call by SGEMM, or once for good by PackB), A read in place — with
//     a register-tiled MR×NR microkernel written in Go. Always available,
//     and the fastest backend on non-amd64 builds and under purego.
//   - jit: the blocked driver with the microkernel emitted as machine code
//     for the best instruction set the CPU and OS support (AVX-512, AVX or
//     SSE; see Variant), plus SSE ReLU and int8 kernels, called through a
//     tiny assembly trampoline.
//
// Numerics: the blocked and jit kernels sum each output element in the
// same order, so their float32 results are bitwise identical. The
// portable loops sum in another order and agree within rounding.
package gemm

// Microkernel tile: MR rows of A by NR columns of B per kernel call, the
// same for every kernel (Go, SSE, AVX, AVX-512), so a packed B does not
// depend on which one runs. NR is one zmm register, two ymm or four xmm
// registers wide.
const (
	mr = 4
	nr = 16
)

// Cache blocking parameters (float32 elements): a KC×NR strip of packed B
// stays in L1 while the kernel walks an MC×KC block of A in L2. KC also
// fixes the rounding: each output element adds one partial sum per KC
// block, so changing it changes the answers. Both are variables (not
// constants) so tests can shrink them to force multi-block loops on small
// shapes.
var (
	blockMC = 128
	blockKC = 256
)

// SGEMM computes C += A·B (or C += A·Bᵀ when transB is set) on row-major
// float32 matrices using the active backend.
//
//	A is m×k with leading dimension (row stride) lda,
//	B is k×n with leading dimension ldb — or n×k when transB,
//	C is m×n with leading dimension ldc.
//
// The blocked and jit backends pack B into ar for the duration of the
// call; nil allocates a private arena (convenient in tests, but
// steady-state callers should pass a reused one). A caller that multiplies
// by the same B repeatedly should pack it once with PackB and call
// SGEMMPacked instead.
func SGEMM(m, n, k int, a []float32, lda int, b []float32, ldb int, transB bool, c []float32, ldc int, ar *Arena) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	be := Active()
	start := kernelStart()
	sgemm(be, m, n, k, a, lda, b, ldb, transB, c, ldc, ar)
	kernelObserve(start, be, "f32")
}

// sgemm is SGEMM on backend be.
func sgemm(be Backend, m, n, k int, a []float32, lda int, b []float32, ldb int, transB bool, c []float32, ldc int, ar *Arena) {
	if be == Portable {
		sgemmPortable(m, n, k, a, lda, b, ldb, transB, c, ldc)
		return
	}
	if ar == nil {
		ar = &Arena{}
	}
	mark := ar.Mark()
	pb := packB(ar.F32Raw(packedLen(k, n)), k, n, blockKC, b, ldb, transB)
	sgemmPacked(m, a, lda, &pb, c, ldc, ar, be == JIT)
	ar.Release(mark)
}

// PackedB is the right-hand operand B (k×n) of C += A·B, packed once into
// the layout the blocked and jit kernels stream: per KC block of k, one
// strip per NR columns, each strip kc rows of NR values, zero-padded on
// the right. The layout depends only on the shape, not on the backend or
// the kernel variant, so one pack serves every later call. The source is
// kept for the portable backend, which reads B unpacked; it must not
// change while the pack is in use.
type PackedB struct {
	k, n, kc int
	data     []float32

	src    []float32
	ldb    int
	transB bool
}

// PackB packs B for SGEMMPacked. B is k×n with leading dimension ldb, or
// n×k when transB, as for SGEMM.
func PackB(k, n int, b []float32, ldb int, transB bool) *PackedB {
	pb := packB(make([]float32, packedLen(k, n)), k, n, blockKC, b, ldb, transB)
	return &pb
}

// SGEMMPacked computes C += A·B like SGEMM, with B packed by PackB. A is
// m×pb's k with leading dimension lda, C is m×pb's n with leading
// dimension ldc; ar supplies scratch as for SGEMM. The answers are
// bitwise those of SGEMM on the unpacked B.
func SGEMMPacked(m int, a []float32, lda int, pb *PackedB, c []float32, ldc int, ar *Arena) {
	if m <= 0 || pb.n <= 0 || pb.k <= 0 {
		return
	}
	be := Active()
	start := kernelStart()
	if be == Portable {
		sgemmPortable(m, pb.n, pb.k, a, lda, pb.src, pb.ldb, pb.transB, c, ldc)
	} else {
		if ar == nil {
			ar = &Arena{}
		}
		sgemmPacked(m, a, lda, pb, c, ldc, ar, be == JIT)
	}
	kernelObserve(start, be, "f32")
}

// packedLen is the float count of a packed k×n operand: k rows of n
// rounded up to whole strips.
func packedLen(k, n int) int { return k * roundUp(n, nr) }

// sgemmPortable is the reference implementation: plain loop nests with no
// packing. Both operand layouts stream A and C rows; the transB form is a
// row-dot-row loop, the direct form a rank-1 accumulation that skips zero
// A entries (post-ReLU activations are sparse).
func sgemmPortable(m, n, k int, a []float32, lda int, b []float32, ldb int, transB bool, c []float32, ldc int) {
	if transB {
		for i := 0; i < m; i++ {
			arow := a[i*lda : i*lda+k]
			crow := c[i*ldc : i*ldc+n]
			for j := 0; j < n; j++ {
				brow := b[j*ldb : j*ldb+k]
				var sum float32
				for l, av := range arow {
					sum += av * brow[l]
				}
				crow[j] += sum
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*lda : i*lda+k]
		crow := c[i*ldc : i*ldc+n]
		for l, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[l*ldb : l*ldb+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// packB packs B into dst (packedLen elements) in KC blocks of kc rows. The strip of NR columns
// starting at column j0 of the KC block starting at row pc sits at
// pc·roundUp(n, NR) + j0·kcEff, where kcEff is that block's height. With
// transB the source is read column-wise from the n×k layout.
func packB(dst []float32, k, n, kc int, b []float32, ldb int, transB bool) PackedB {
	o := 0
	for pc := 0; pc < k; pc += kc {
		kcEff := min(kc, k-pc)
		for j0 := 0; j0 < n; j0 += nr {
			w := min(nr, n-j0)
			for l := pc; l < pc+kcEff; l++ {
				row := dst[o : o+nr : o+nr]
				if transB {
					for j := 0; j < w; j++ {
						row[j] = b[(j0+j)*ldb+l]
					}
				} else {
					copy(row, b[l*ldb+j0:l*ldb+j0+w])
				}
				clear(row[w:])
				o += nr
			}
		}
	}
	return PackedB{k: k, n: n, kc: kc, data: dst, src: b, ldb: ldb, transB: transB}
}

// sgemmPacked is the cache-blocked driver shared by the blocked and jit
// backends. For each KC block of k and each MC block of A's rows it runs
// the MR×NR kernel over every (B strip, row quad) pair, B strip outermost
// so the strip stays in L1. The kernel reads A in place, four rows at a
// time; only the last m%MR rows are copied, zero-padded to a full quad.
// Tiles that overhang C (the last n%NR columns, or the padded rows)
// accumulate into a zeroed scratch tile whose valid part is then added
// to C. That is exact: a kernel sum starts at +0 and so is never −0, and
// 0 + s == s.
func sgemmPacked(m int, a []float32, lda int, pb *PackedB, c []float32, ldc int, ar *Arena, useJIT bool) {
	mark := ar.Mark()
	defer ar.Release(mark)
	n, k, kc0 := pb.n, pb.k, pb.kc
	nPad := roundUp(n, nr)
	tile := ar.F32Raw(mr * nr)
	var quad []float32 // zero-padded copy of the last m%MR rows
	mFull := m &^ (mr - 1)
	if mFull < m {
		quad = ar.F32Raw(mr * min(kc0, k))
	}
	for pc := 0; pc < k; pc += kc0 {
		kcEff := min(kc0, k-pc)
		panel := pb.data[pc*nPad : (pc+kcEff)*nPad]
		if quad != nil {
			for i := 0; i < mr; i++ {
				row := quad[i*kcEff : (i+1)*kcEff]
				if mFull+i < m {
					copy(row, a[(mFull+i)*lda+pc:])
				} else {
					clear(row)
				}
			}
		}
		for ic := 0; ic < m; ic += blockMC {
			mcEff := min(blockMC, m-ic)
			for j0 := 0; j0 < n; j0 += nr {
				strip := panel[j0*kcEff : (j0+nr)*kcEff]
				w := min(nr, n-j0)
				for i0 := ic; i0 < ic+mcEff; i0 += mr {
					h := min(mr, m-i0)
					aq, ldq := a[i0*lda+pc:], lda
					if h < mr {
						aq, ldq = quad, kcEff
					}
					if h == mr && w == nr {
						kernel(kcEff, aq, ldq, strip, c[i0*ldc+j0:], ldc, useJIT)
						continue
					}
					clear(tile)
					kernel(kcEff, aq, ldq, strip, tile, nr, useJIT)
					for i := 0; i < h; i++ {
						crow := c[(i0+i)*ldc+j0 : (i0+i)*ldc+j0+w]
						for j := range crow {
							crow[j] += tile[i*nr+j]
						}
					}
				}
			}
		}
	}
}

// kernel dispatches one MR×NR tile to the JIT microkernel when requested
// (and available) or to the Go one.
func kernel(kc int, a []float32, lda int, b, c []float32, ldc int, useJIT bool) {
	if useJIT && jitKernels.f32 != nil {
		jitKernels.f32.callF32(kc, a, lda, b, c, ldc)
		return
	}
	microKernelGo(kc, a, lda, b, c, ldc)
}

// microKernelGo is the Go MR×NR microkernel and the oracle the JIT
// kernels are tested against: C[0:MR][0:NR] += A·B, where row i of A is
// a[i·lda : i·lda+kc] and b is a packed kc×NR strip. Each element's sum
// starts at zero and adds a·b in ascending k, with a separate rounding
// for the multiply and the add (no FMA), and is then added to C; every
// kernel keeps exactly that order, so all agree bitwise. Half a C row is
// computed per pass so its eight accumulators stay in registers; the B
// strip is re-read from L1.
func microKernelGo(kc int, a []float32, lda int, b, c []float32, ldc int) {
	for i := 0; i < mr; i++ {
		arow := a[i*lda : i*lda+kc]
		for h := 0; h < nr; h += 8 {
			var c0, c1, c2, c3, c4, c5, c6, c7 float32
			for l, ai := range arow {
				bv := b[l*nr+h : l*nr+h+8 : l*nr+h+8]
				c0 += ai * bv[0]
				c1 += ai * bv[1]
				c2 += ai * bv[2]
				c3 += ai * bv[3]
				c4 += ai * bv[4]
				c5 += ai * bv[5]
				c6 += ai * bv[6]
				c7 += ai * bv[7]
			}
			crow := c[i*ldc+h : i*ldc+h+8 : i*ldc+h+8]
			crow[0] += c0
			crow[1] += c1
			crow[2] += c2
			crow[3] += c3
			crow[4] += c4
			crow[5] += c5
			crow[6] += c6
			crow[7] += c7
		}
	}
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }
