package gemm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// lcg is a tiny deterministic generator so tests reproduce exactly.
type lcg uint64

func (g *lcg) next() float32 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float32(int32(uint32(*g>>33)%2000)-1000) / 256
}

func (g *lcg) nextInt8() int8 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return int8(uint8(*g >> 56))
}

// refGEMM is an independent reference with float64 accumulation.
func refGEMM(m, n, k int, a []float32, lda int, b []float32, ldb int, transB bool, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			sum := float64(c[i*ldc+j])
			for l := 0; l < k; l++ {
				var bv float32
				if transB {
					bv = b[j*ldb+l]
				} else {
					bv = b[l*ldb+j]
				}
				sum += float64(a[i*lda+l]) * float64(bv)
			}
			c[i*ldc+j] = float32(sum)
		}
	}
}

func fill32(g *lcg, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = g.next()
	}
	return s
}

var gemmShapes = []struct {
	m, n, k int
	transB  bool
}{
	{1, 1, 1, false},
	{1, 1, 1, true},
	{4, 8, 16, false},
	{4, 8, 16, true},
	{5, 9, 7, true},
	{13, 17, 29, false},
	{13, 17, 29, true},
	// CATI CNN shapes: conv1 im2col (L=21, K*In=288, Out=32), conv2
	// (L=10, K*In=96, Out=64), dense1 (320→1024 for a small batch).
	{21, 32, 288, true},
	{10, 64, 96, true},
	{3, 1024, 320, false},
	// Bigger than one KC/MC block to exercise multi-panel loops.
	{131, 40, 300, false},
	{7, 2100, 270, true},
}

func TestSGEMMEquivalence(t *testing.T) {
	checkSGEMMEquivalence(t)
}

// checkSGEMMEquivalence runs every gemmShapes entry through the portable,
// blocked and (where available) jit paths, raw and with B packed once:
// each must match the float64 reference within rounding, and all four
// blocked and jit results must agree bitwise.
func checkSGEMMEquivalence(t *testing.T) {
	t.Helper()
	ar := &Arena{}
	for _, sh := range gemmShapes {
		g := lcg(uint64(sh.m*1000003 + sh.n*997 + sh.k))
		a := fill32(&g, sh.m*sh.k)
		var b []float32
		if sh.transB {
			b = fill32(&g, sh.n*sh.k)
		} else {
			b = fill32(&g, sh.k*sh.n)
		}
		c0 := fill32(&g, sh.m*sh.n)

		want := append([]float32(nil), c0...)
		ldb := sh.n
		if sh.transB {
			ldb = sh.k
		}
		refGEMM(sh.m, sh.n, sh.k, a, sh.k, b, ldb, sh.transB, want, sh.n)

		port := append([]float32(nil), c0...)
		sgemm(Portable, sh.m, sh.n, sh.k, a, sh.k, b, ldb, sh.transB, port, sh.n, ar)
		checkClose(t, "portable", sh.m, sh.n, sh.k, port, want)

		blk := append([]float32(nil), c0...)
		sgemm(Blocked, sh.m, sh.n, sh.k, a, sh.k, b, ldb, sh.transB, blk, sh.n, ar)
		checkClose(t, "blocked", sh.m, sh.n, sh.k, blk, want)

		// The blocked and jit kernels all sum each element in the same
		// order, so every path must agree with blk bitwise, not just
		// within tolerance.
		pb := PackB(sh.k, sh.n, b, ldb, sh.transB)
		for _, useJIT := range []bool{false, true} {
			name := "blocked"
			if useJIT {
				if !jitAvailable() {
					continue
				}
				name = "jit"
				raw := append([]float32(nil), c0...)
				sgemm(JIT, sh.m, sh.n, sh.k, a, sh.k, b, ldb, sh.transB, raw, sh.n, ar)
				checkBitwise(t, "jit vs blocked", sh.m, sh.n, sh.k, raw, blk)
			}
			packed := append([]float32(nil), c0...)
			sgemmPacked(sh.m, a, sh.k, pb, packed, sh.n, ar, useJIT)
			checkBitwise(t, name+" packed vs raw", sh.m, sh.n, sh.k, packed, blk)
		}
	}
}

func checkBitwise(t *testing.T, name string, m, n, k int, got, want []float32) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s %dx%dx%d: c[%d] = %v != %v", name, m, n, k, i, got[i], want[i])
		}
	}
}

// TestSGEMMPackedEntry drives the exported entry points under each
// selectable backend: SGEMMPacked must reproduce SGEMM bitwise, portable
// included (it multiplies by the pack's unpacked source), and must leave
// C's padding alone when ldc > n.
func TestSGEMMPackedEntry(t *testing.T) {
	orig := Active()
	defer func() { active.Store(int32(orig) + 1) }()
	const m, n, k, ldc = 9, 19, 300, 23
	g := lcg(11)
	a := fill32(&g, m*k)
	b := fill32(&g, n*k)
	c0 := fill32(&g, m*ldc)
	pb := PackB(k, n, b, k, true)
	for _, name := range BackendNames()[1:] {
		if err := Select(name); err != nil {
			continue
		}
		raw := append([]float32(nil), c0...)
		SGEMM(m, n, k, a, k, b, k, true, raw, ldc, nil)
		packed := append([]float32(nil), c0...)
		SGEMMPacked(m, a, k, pb, packed, ldc, nil)
		checkBitwise(t, name+" packed vs raw", m, n, k, packed, raw)
		for i := 0; i < m; i++ {
			for j := n; j < ldc; j++ {
				if packed[i*ldc+j] != c0[i*ldc+j] {
					t.Fatalf("%s: padding c[%d][%d] written", name, i, j)
				}
			}
		}
	}
}

func checkClose(t *testing.T, name string, m, n, k int, got, want []float32) {
	t.Helper()
	// Different summation orders accumulate rounding proportional to the
	// dot-product length: with |a·b| ≲ 16 per term, worst-case drift is
	// ~eps·16·k absolute, so the bound scales with k. Exactness across
	// backends is separately pinned by the bitwise jit↔blocked check.
	abs := 1.2e-7 * 16 * float64(k+8)
	for i := range got {
		diff := math.Abs(float64(got[i] - want[i]))
		tol := math.Max(1e-4*math.Abs(float64(want[i])), abs)
		if diff > tol {
			t.Fatalf("%s %dx%dx%d: c[%d] = %v, want %v", name, m, n, k, i, got[i], want[i])
		}
	}
}

// TestSGEMMBlockedSmallBlocks shrinks the blocking parameters so even tiny
// shapes cross MC/KC/NC boundaries, exercising panel edges.
func TestSGEMMBlockedSmallBlocks(t *testing.T) {
	oMC, oKC := blockMC, blockKC
	blockMC, blockKC = 8, 4
	defer func() { blockMC, blockKC = oMC, oKC }()

	g := lcg(42)
	const m, n, k = 19, 23, 11
	a := fill32(&g, m*k)
	b := fill32(&g, k*n)
	want := make([]float32, m*n)
	refGEMM(m, n, k, a, k, b, n, false, want, n)

	for _, be := range []Backend{Blocked, JIT} {
		if be == JIT && !jitAvailable() {
			continue
		}
		got := make([]float32, m*n)
		sgemm(be, m, n, k, a, k, b, n, false, got, n, &Arena{})
		checkClose(t, "small-blocks", m, n, k, got, want)
	}
}

func TestGEMMInt8Equivalence(t *testing.T) {
	g := lcg(7)
	for _, sh := range [][3]int{{1, 1, 1}, {5, 7, 13}, {21, 32, 288}, {3, 1024, 320}} {
		m, n, k := sh[0], sh[1], sh[2]
		a := make([]int8, m*k)
		b := make([]int8, n*k)
		for i := range a {
			a[i] = g.nextInt8()
		}
		for i := range b {
			b[i] = g.nextInt8()
		}
		want := make([]int32, m*n)
		gemmInt8Portable(m, n, k, a, b, want)

		blk := make([]int32, m*n)
		gemmInt8Blocked(m, n, k, a, b, blk)
		for i := range blk {
			if blk[i] != want[i] {
				t.Fatalf("int8 blocked %dx%dx%d: c[%d] = %d, want %d", m, n, k, i, blk[i], want[i])
			}
		}

		if jitAvailable() && jitKernels.i8 != nil {
			jit := make([]int32, m*n)
			jitKernels.i8.callInt8(a, b, jit, m, n, k)
			for i := range jit {
				if jit[i] != want[i] {
					t.Fatalf("int8 jit %dx%dx%d: c[%d] = %d, want %d", m, n, k, i, jit[i], want[i])
				}
			}
		}
	}
}

func TestQuantizePerRow(t *testing.T) {
	w := []float32{
		1, -2, 3, -4, // amax 4
		0, 0, 0, 0, // all-zero row
		0.5, 0.25, -0.125, 0.0625,
	}
	q, scales := QuantizePerRow(w, 3, 4)
	if scales[1] != 1 {
		t.Fatalf("zero row scale = %v, want 1", scales[1])
	}
	for i := range q[4:8] {
		if q[4+i] != 0 {
			t.Fatalf("zero row q[%d] = %d", i, q[4+i])
		}
	}
	// Round-trip error is bounded by half a quantization step per value.
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			back := float32(q[r*4+c]) * scales[r]
			if diff := math.Abs(float64(back - w[r*4+c])); diff > float64(scales[r])/2+1e-7 {
				t.Fatalf("w[%d][%d]: %v -> %v (scale %v)", r, c, w[r*4+c], back, scales[r])
			}
		}
	}
	// The largest-magnitude entry must hit ±127 exactly.
	if q[3] != -127 {
		t.Fatalf("amax entry quantized to %d, want -127", q[3])
	}
}

func TestQuantizeTensorInto(t *testing.T) {
	x := []float32{0.1, -3.7, 2.2, 0}
	q := make([]int8, len(x))
	scale := QuantizeTensorInto(q, x)
	for i := range x {
		back := float32(q[i]) * scale
		if diff := math.Abs(float64(back - x[i])); diff > float64(scale)/2+1e-7 {
			t.Fatalf("x[%d]: %v -> %v", i, x[i], back)
		}
	}
	zero := make([]float32, 4)
	if s := QuantizeTensorInto(q, zero); s != 1 {
		t.Fatalf("zero tensor scale = %v, want 1", s)
	}
}

func TestDequantizeRows(t *testing.T) {
	c := []int32{10, -20, 30, 40}
	out := make([]float32, 4)
	DequantizeRows(out, c, 2, 2, 0.5, []float32{2, 4}, []float32{1, -1})
	want := []float32{10*0.5*2 + 1, -20*0.5*4 - 1, 30*0.5*2 + 1, 40*0.5*4 - 1}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestArena(t *testing.T) {
	var a Arena
	s1 := a.F32(10)
	for i := range s1 {
		s1[i] = 7
	}
	s2 := a.F32(5)
	for _, v := range s2 {
		if v != 0 {
			t.Fatal("F32 did not zero")
		}
	}
	mark := a.Mark()
	_ = a.F32Raw(100)
	a.Release(mark)
	s3 := a.F32Raw(100)
	_ = s3

	// Once the high-water mark is reached, Reset hands out the same
	// backing region again — steady state allocates nothing.
	a.Reset()
	s4 := a.F32(10)
	s4[0] = 9
	a.Reset()
	s5 := a.F32(10)
	if &s4[0] != &s5[0] {
		t.Fatal("Reset did not rewind to the start of the backing array")
	}
	if s5[0] != 0 {
		t.Fatal("F32 after Reset did not zero")
	}

	q := a.I8(33)
	if len(q) != 33 {
		t.Fatal("I8 length")
	}
	w := a.I32(9)
	for _, v := range w {
		if v != 0 {
			t.Fatal("I32 did not zero")
		}
	}
}

func TestSelectBackend(t *testing.T) {
	orig := Active()
	defer func() { active.Store(int32(orig) + 1) }()

	if err := Select("nope"); err == nil {
		t.Fatal("Select(nope) succeeded")
	}
	if err := Select("portable"); err != nil {
		t.Fatal(err)
	}
	if Active() != Portable {
		t.Fatalf("Active() = %v after Select(portable)", Active())
	}
	if err := Select("blocked"); err != nil {
		t.Fatal(err)
	}
	if err := Select("auto"); err != nil {
		t.Fatal(err)
	}
	if jitAvailable() {
		if Active() != JIT {
			t.Fatalf("auto picked %v with jit available", Active())
		}
		if err := Select("jit"); err != nil {
			t.Fatal(err)
		}
	} else if err := Select("jit"); err == nil {
		t.Fatal("Select(jit) succeeded without jit support")
	}
}

// TestBackendGaugeNamesVariant: Select publishes the active backend on
// cati_kernel_backend, labelled with the kernel variant that runs: "go"
// for the Go backends, Variant() for jit.
func TestBackendGaugeNamesVariant(t *testing.T) {
	orig := Active()
	defer func() { active.Store(int32(orig) + 1) }()
	was := telemetry.On()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(was)
	gauge := func(backend, variant string) int64 {
		return telemetry.Default().Gauge("cati_kernel_backend", "", "backend", backend, "variant", variant).Value()
	}
	if err := Select("blocked"); err != nil {
		t.Fatal(err)
	}
	if gauge("blocked", "go") != 1 || gauge("jit", Variant()) != 0 {
		t.Fatalf("after Select(blocked): blocked=%d jit=%d", gauge("blocked", "go"), gauge("jit", Variant()))
	}
	if !jitAvailable() {
		if Variant() != "none" {
			t.Fatalf("Variant() = %q without jit", Variant())
		}
		return
	}
	if err := Select("jit"); err != nil {
		t.Fatal(err)
	}
	if gauge("jit", Variant()) != 1 || gauge("blocked", "go") != 0 {
		t.Fatalf("after Select(jit): jit{variant=%s}=%d", Variant(), gauge("jit", Variant()))
	}
}

func TestJITAvailableOnLinuxAmd64(t *testing.T) {
	// On the platforms CI runs (linux/amd64, no purego tag) the JIT must
	// come up: SSE2 is part of the amd64 baseline and the self-test is
	// deterministic. Everywhere else the stub reports a reason.
	if !jitAvailable() {
		t.Skipf("jit unavailable: %s", jitUnavailableReason())
	}
	if reason := jitUnavailableReason(); !strings.HasPrefix(reason, "available") {
		t.Fatalf("reason = %q with jit available", reason)
	}
}

func FuzzGEMMEquivalence(f *testing.F) {
	// Seed with the CATI CNN shapes (conv1/conv2 im2col and dense layers).
	f.Add(uint8(21), uint16(32), uint16(288), true, uint64(1))
	f.Add(uint8(10), uint16(64), uint16(96), true, uint64(2))
	f.Add(uint8(8), uint16(255), uint16(320), false, uint64(3))
	f.Add(uint8(1), uint16(1), uint16(1), false, uint64(4))
	f.Add(uint8(13), uint16(9), uint16(1031), true, uint64(5))
	// The model's shapes whose k crosses the KC=256 block boundary, at
	// exactly m×n×k: conv1 (k 288), dense1 (k 320, n 1024) and dense2 (k
	// 1024, n the class counts 2, 9 and 19), plus odd row counts.
	for i, sh := range [][4]int{
		{21, 32, 288, 1}, {13, 64, 288, 1}, {7, 64, 320, 1},
		{8, 1024, 320, 0}, {3, 1024, 288, 1}, {6, 1024, 1024, 0},
		{9, 2, 1024, 0}, {10, 9, 1024, 0}, {11, 19, 1024, 0}, {5, 19, 320, 1},
	} {
		f.Add(uint8(sh[0]-1), uint16(sh[1]-1), uint16(sh[2]-1), sh[3] == 1, uint64(10+i))
	}

	ar := &Arena{}
	f.Fuzz(func(t *testing.T, mm uint8, nn, kk uint16, transB bool, seed uint64) {
		m := int(mm)%64 + 1
		n := int(nn)%1100 + 1
		k := int(kk)%1100 + 1
		g := lcg(seed)
		a := fill32(&g, m*k)
		b := fill32(&g, n*k) // big enough for either layout
		c0 := fill32(&g, m*n)
		ldb := n
		if transB {
			ldb = k
		}

		want := append([]float32(nil), c0...)
		sgemmPortable(m, n, k, a, k, b, ldb, transB, want, n)

		blk := append([]float32(nil), c0...)
		sgemm(Blocked, m, n, k, a, k, b, ldb, transB, blk, n, ar)
		checkClose(t, "blocked", m, n, k, blk, want)

		pb := PackB(k, n, b, ldb, transB)
		for _, useJIT := range []bool{false, true} {
			name := "blocked"
			if useJIT {
				if !jitAvailable() {
					continue
				}
				name = "jit"
				raw := append([]float32(nil), c0...)
				sgemm(JIT, m, n, k, a, k, b, ldb, transB, raw, n, ar)
				checkBitwise(t, "jit vs blocked", m, n, k, raw, blk)
			}
			packed := append([]float32(nil), c0...)
			sgemmPacked(m, a, k, pb, packed, n, ar, useJIT)
			checkBitwise(t, name+" packed vs raw", m, n, k, packed, blk)
		}

		// Int8 path on the same shapes (dot-product layout).
		qa := make([]int8, m*k)
		qb := make([]int8, n*k)
		for i := range qa {
			qa[i] = g.nextInt8()
		}
		for i := range qb {
			qb[i] = g.nextInt8()
		}
		wantI := make([]int32, m*n)
		gemmInt8Portable(m, n, k, qa, qb, wantI)
		gotI := make([]int32, m*n)
		GEMMInt8(m, n, k, qa, qb, gotI)
		for i := range gotI {
			if gotI[i] != wantI[i] {
				t.Fatalf("int8 %dx%dx%d: c[%d] = %d, want %d", m, n, k, i, gotI[i], wantI[i])
			}
		}
	})
}
