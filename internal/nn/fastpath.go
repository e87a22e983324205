package nn

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/gemm"
	"repro/internal/par"
)

// The inference fast path lowers the CNN's forward pass onto the gemm math
// core. Convolutions become im2col + GEMM (the [B, L, Cin] input unfolds
// into a [B*L, K*Cin] matrix so the whole layer is one matrix product
// against the [Out, K*Cin] filter bank) and dense layers call GEMM
// directly, each against its weights packed once (Param.packedB). Every
// intermediate buffer — im2col matrices, activations, quantized tensors,
// GEMM scratch tiles — is carved from a per-worker Arena that is reset
// between batches. After the first batch warms an arena to its high-water
// mark, steady-state inference performs zero heap allocations.
//
// Training never touches this path: Forward(train=true) keeps the original
// reference loops (which retain backward state), and the trainers are the
// only callers that pass train=true.

// arenaPool recycles per-worker scratch arenas across prediction calls.
// Arenas are not goroutine-safe; each chunk worker takes one for the
// duration of a batch.
var arenaPool = sync.Pool{New: func() any { return new(gemm.Arena) }}

// im2col unfolds a same-padded [b, l, in] sequence batch into rows of
// concatenated k-windows: dst[(bi*l+li)] = x[bi, li-k/2 : li+k/2+1, :],
// zero-padded at the edges. dst must hold b*l*k*in values; every position
// is written.
func im2col(dst, x []float32, b, l, in, k int) {
	im2colRows(dst, x, 0, b*l, l, in, k)
}

// im2colRows writes rows [r0, r1) of the im2col matrix into dst (row r of
// the matrix is sample r/l, sequence position r%l), so the conv GEMM can
// materialize one cache-sized strip at a time instead of the full matrix.
func im2colRows(dst, x []float32, r0, r1, l, in, k int) {
	half := k / 2
	rowLen := k * in
	for r := r0; r < r1; r++ {
		bi, li := r/l, r%l
		xb := x[bi*l*in : (bi+1)*l*in]
		row := dst[(r-r0)*rowLen : (r-r0+1)*rowLen]
		for dk := 0; dk < k; dk++ {
			si := li + dk - half
			seg := row[dk*in : (dk+1)*in]
			if si < 0 || si >= l {
				clear(seg)
				continue
			}
			copy(seg, xb[si*in:(si+1)*in])
		}
	}
}

// convRowBlock is the number of im2col rows materialized per conv GEMM
// call: small enough that the strip (convRowBlock × K·Cin floats) stays
// in the last-level cache instead of round-tripping through DRAM.
const convRowBlock = 512

// fillBiasRows initializes each of the m rows of out with bias.
func fillBiasRows(out, bias []float32, m int) {
	n := len(bias)
	for i := 0; i < m; i++ {
		copy(out[i*n:(i+1)*n], bias)
	}
}

// forwardGEMM computes the convolution via im2col + GEMM: out (b*l rows,
// Out wide, bias-initialized) += im2col(x) · Wᵀ. The im2col matrix lives
// between mark/release so it does not count against the arena's high-water
// mark once the layer finishes.
func (c *Conv1D) forwardGEMM(x, out []float32, b, l int, ar *gemm.Arena) {
	m := b * l
	kIn := c.K * c.In
	w := c.W.packedB(kIn, c.Out, kIn, true)
	fillBiasRows(out, c.B.W, m)
	mark := ar.Mark()
	col := ar.F32Raw(min(m, convRowBlock) * kIn)
	for r0 := 0; r0 < m; r0 += convRowBlock {
		rows := min(convRowBlock, m-r0)
		im2colRows(col, x, r0, r0+rows, l, c.In, c.K)
		gemm.SGEMMPacked(rows, col[:rows*kIn], kIn, w, out[r0*c.Out:], c.Out, ar)
	}
	ar.Release(mark)
}

// forwardGEMM computes out (b rows, bias-initialized) += x · W.
func (d *Dense) forwardGEMM(x, out []float32, b int, ar *gemm.Arena) {
	fillBiasRows(out, d.B.W, b)
	gemm.SGEMMPacked(b, x, d.In, d.W.packedB(d.In, d.Out, d.Out, false), out, d.Out, ar)
}

// packedB returns W as the packed k×n right-hand GEMM operand (W is n×k
// with transB), building it on first use; the stage workers that share a
// network build it once. Answers are bitwise those of multiplying by W
// unpacked. A paper-dimension tree model holds about 8.6 MB of packs,
// mostly its six 320×1024 dense1 layers.
func (p *Param) packedB(k, n, ldb int, transB bool) *gemm.PackedB {
	if pb := p.pack.Load(); pb != nil {
		return pb
	}
	p.packMu.Lock()
	defer p.packMu.Unlock()
	pb := p.pack.Load()
	if pb == nil {
		pb = gemm.PackB(k, n, p.W, ldb, transB)
		p.pack.Store(pb)
	}
	return pb
}

// forwardInfer runs the whole network over a flattened [b, seqLen, embDim]
// batch in arena memory and returns the logits ([b*classes], arena-owned)
// with the class count. ok is false when the stack contains a layer type
// the fast path cannot lower; callers then fall back to Layer.Forward.
func forwardInfer(net *Network, x []float32, b, seqLen, embDim int, ar *gemm.Arena) (logits []float32, classes int, ok bool) {
	cur := x
	l, ch := seqLen, embDim // current [b, l, ch] shape; flat after Flatten
	flat := false
	for _, layer := range net.Layers {
		switch t := layer.(type) {
		case *Conv1D:
			out := ar.F32Raw(b * l * t.Out)
			t.forwardGEMM(cur, out, b, l, ar)
			cur, ch = out, t.Out
		case *QConv1D:
			out := ar.F32Raw(b * l * t.Out)
			t.forwardInto(cur, out, b, l, ar)
			cur, ch = out, t.Out
		case *ReLU:
			gemm.ReLU(cur)
		case *MaxPool1D:
			ol := l / 2
			out := ar.F32Raw(b * ol * ch)
			for bi := 0; bi < b; bi++ {
				for li := 0; li < ol; li++ {
					i0 := (bi*l + 2*li) * ch
					i1 := i0 + ch
					o := (bi*ol + li) * ch
					for ci := 0; ci < ch; ci++ {
						a, bb := cur[i0+ci], cur[i1+ci]
						if a >= bb {
							out[o+ci] = a
						} else {
							out[o+ci] = bb
						}
					}
				}
			}
			cur, l = out, ol
		case *Flatten:
			ch, l, flat = l*ch, 1, true
		case *Dense:
			out := ar.F32Raw(b * t.Out)
			t.forwardGEMM(cur, out, b, ar)
			cur, ch = out, t.Out
		case *QDense:
			out := ar.F32Raw(b * t.Out)
			t.forwardInto(cur, out, b, ar)
			cur, ch = out, t.Out
		default:
			return nil, 0, false
		}
	}
	if !flat {
		return nil, 0, false
	}
	return cur, ch, true
}

// OutputDim returns the network's class count (the output width of the
// final dense layer), or 0 if the architecture does not end in one.
func (n *Network) OutputDim() int {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		switch t := n.Layers[i].(type) {
		case *Dense:
			return t.Out
		case *QDense:
			return t.Out
		}
	}
	return 0
}

// PredictIntoCtx is the zero-allocation inference entry point: class
// probabilities for samples[i] are written into out[i], which the caller
// provides with len(out) == len(samples) and every row at least
// net.OutputDim() long. Workers share nothing but the network weights;
// each takes a pooled scratch arena, so once the arenas have warmed to the
// batch shape the call performs no heap allocations (with workers=1 the
// fan-out itself is inline and allocation-free too).
func PredictIntoCtx(ctx context.Context, net *Network, samples [][]float32, seqLen, embDim, workers int, out [][]float32) error {
	if len(samples) == 0 {
		return nil
	}
	if len(out) != len(samples) {
		return fmt.Errorf("nn: predict into %d rows for %d samples", len(out), len(samples))
	}
	classes := net.OutputDim()
	if classes == 0 {
		return fmt.Errorf("nn: network has no dense output layer")
	}
	for i, row := range out {
		if len(row) < classes {
			return fmt.Errorf("nn: output row %d has %d of %d classes", i, len(row), classes)
		}
	}
	chunks := (len(samples) + predictChunk - 1) / predictChunk
	if par.Workers(workers) == 1 || chunks == 1 {
		// Closure-free serial path: with a warmed arena this loop performs
		// zero heap allocations per call.
		for ci := 0; ci < chunks; ci++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			predictChunkInto(net, samples, seqLen, embDim, ci, out)
		}
		return nil
	}
	return par.ForEachCtx(ctx, chunks, par.Workers(workers), func(ci int) {
		predictChunkInto(net, samples, seqLen, embDim, ci, out)
	})
}

// predictChunkInto runs one predictChunk-sized slice of samples through the
// fast path on a pooled arena and writes the probability rows into out.
func predictChunkInto(net *Network, samples [][]float32, seqLen, embDim, ci int, out [][]float32) {
	size := seqLen * embDim
	start := ci * predictChunk
	end := min(start+predictChunk, len(samples))
	b := end - start
	ar := arenaPool.Get().(*gemm.Arena)
	defer arenaPool.Put(ar)
	ar.Reset()

	x := ar.F32Raw(b * size)
	for bi, s := range samples[start:end] {
		copy(x[bi*size:(bi+1)*size], s)
	}
	logits, c, ok := forwardInfer(net, x, b, seqLen, embDim, ar)
	if !ok {
		// Unknown layer type: generic path through Layer.Forward.
		xt := NewTensor(b, seqLen, embDim)
		copy(xt.Data, x)
		lt := net.Forward(xt, false)
		logits, c = lt.Data, lt.Dim(1)
	}
	softmaxRows(logits, b, c)
	for bi := 0; bi < b; bi++ {
		copy(out[start+bi][:c], logits[bi*c:(bi+1)*c])
	}
}
