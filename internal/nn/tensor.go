// Package nn is a compact pure-Go neural-network library implementing
// exactly what the paper's Keras models need (§V-A): 1-D convolutions over
// the 21×96 VUC matrix, ReLU, max-pooling, dense layers, softmax
// cross-entropy, and the Adam optimizer, with deterministic initialization
// and (de)serialization.
package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/gemm"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Data  []float32
	Shape []int
}

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &Tensor{Data: make([]float32, n), Shape: append([]int(nil), shape...)}
}

// Len returns the element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// ShapeError reports an element-count-changing reshape. It is the value
// Reshape panics with, so a contained panic (par.Safe / par.ForEachCtx)
// surfaces as a structured error reachable with errors.As rather than a
// formatted string.
type ShapeError struct {
	From, To []int
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("nn: reshape %v to %v changes element count", e.From, e.To)
}

// ReshapeChecked returns a view with a new shape of equal element count,
// or a *ShapeError when the counts differ. This is the validated path for
// shapes that derive from external input.
func (t *Tensor) ReshapeChecked(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		return nil, &ShapeError{
			From: append([]int(nil), t.Shape...),
			To:   append([]int(nil), shape...),
		}
	}
	return &Tensor{Data: t.Data, Shape: append([]int(nil), shape...)}, nil
}

// Reshape returns a view with a new shape of equal element count. It
// panics with a *ShapeError on mismatch — reserved for call sites whose
// shapes are provably consistent (see Flatten); anything shape-derived
// from external input must use ReshapeChecked. Inside the worker pool a
// violation is contained by par's recover-to-error layer instead of
// killing the process.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	out, err := t.ReshapeChecked(shape...)
	if err != nil {
		panic(err)
	}
	return out
}

// Param is one learnable parameter with its gradient accumulator.
type Param struct {
	W []float32
	G []float32
	// Adam state.
	m, v []float32

	// pack caches W packed as the GEMM operand of the inference fast path
	// (see packedB). Adam.Step, the only code that changes W of a network
	// in use, drops it.
	pack   atomic.Pointer[gemm.PackedB]
	packMu sync.Mutex
}

func newParam(n int) *Param {
	return &Param{W: make([]float32, n), G: make([]float32, n)}
}

func (p *Param) zeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// glorotInit fills W uniformly in ±sqrt(6/(fanIn+fanOut)).
func glorotInit(r *rand.Rand, w []float32, fanIn, fanOut int) {
	limit := float32(2.449489742783178) / float32(sqrtf(float32(fanIn+fanOut))) // sqrt(6)/sqrt(fan)
	for i := range w {
		w[i] = (r.Float32()*2 - 1) * limit
	}
}

func sqrtf(x float32) float32 {
	// Newton iterations are plenty for initialization purposes.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 16; i++ {
		z = (z + x/z) / 2
	}
	return z
}
