package nn

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/par"
	"repro/internal/telemetry"
)

// Training telemetry, shared by the serial and data-parallel trainers.
// Counters accumulate across every network trained in the process (the
// six stage CNNs train concurrently); the gauges hold the most recently
// completed epoch's mean loss and throughput.
var (
	mMinibatches = telemetry.Default().Counter("cati_nn_minibatches_total",
		"Minibatches processed across all classifier trainings.")
	mExamples = telemetry.Default().Counter("cati_nn_examples_total",
		"Training examples consumed across all classifier trainings.")
	mLoss = telemetry.Default().FloatGauge("cati_nn_loss",
		"Mean cross-entropy loss of the most recently completed epoch.")
	mExamplesPerSec = telemetry.Default().FloatGauge("cati_nn_examples_per_second",
		"Training throughput of the most recently completed epoch.")
)

// epochDone updates the loss/throughput gauges after one epoch.
func epochDone(meanLoss float64, seen int, elapsed time.Duration) {
	mLoss.Set(meanLoss)
	if s := elapsed.Seconds(); s > 0 {
		mExamplesPerSec.Set(float64(seen) / s)
	}
}

// Network is a sequential stack of layers ending in logits; softmax and
// cross-entropy live in the trainer.
type Network struct {
	Layers []Layer
}

// Forward runs all layers.
func (n *Network) Forward(x *Tensor, train bool) *Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates a gradient through all layers.
func (n *Network) Backward(grad *Tensor) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
}

// Params collects all learnable parameters.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NewCATICNN builds the paper's per-stage classifier: two convolution
// layers (32 then 64 filters) and a 1024-unit fully connected layer
// feeding the class logits ("we employ a common 2-layer CNN model (32-64)
// with a fully connected layer (1024)", §V-A).
func NewCATICNN(seqLen, embDim, classes int, seed int64) *Network {
	return NewCNN(seqLen, embDim, 32, 64, 1024, classes, seed)
}

// NewCNN builds the same architecture with configurable sizes (used by the
// ablation benchmarks).
func NewCNN(seqLen, embDim, conv1, conv2, hidden, classes int, seed int64) *Network {
	r := rand.New(rand.NewSource(seed))
	l1 := seqLen / 2
	l2 := l1 / 2
	return &Network{Layers: []Layer{
		NewConv1D(r, embDim, conv1, 3),
		&ReLU{},
		&MaxPool1D{},
		NewConv1D(r, conv1, conv2, 3),
		&ReLU{},
		&MaxPool1D{},
		&Flatten{},
		NewDense(r, l2*conv2, hidden),
		&ReLU{},
		NewDense(r, hidden, classes),
	}}
}

// Softmax converts logits to probabilities in place per row of [B, C].
func Softmax(logits *Tensor) {
	softmaxRows(logits.Data, logits.Dim(0), logits.Dim(1))
}

// softmaxRows is Softmax on a flat [b, c] buffer (the fast path has no
// Tensor wrapper).
func softmaxRows(data []float32, b, c int) {
	for bi := 0; bi < b; bi++ {
		row := data[bi*c : (bi+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxv))
			row[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range row {
			row[i] *= inv
		}
	}
}

// Adam is the Adam optimizer.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	step  int
}

// NewAdam returns Adam with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to every parameter and zeroes gradients.
func (a *Adam) Step(params []*Param) {
	a.step++
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	lr := float32(a.LR * math.Sqrt(b2c) / b1c)
	b1, b2 := float32(a.Beta1), float32(a.Beta2)
	eps := float32(a.Eps)
	for _, p := range params {
		if p.m == nil {
			p.m = make([]float32, len(p.W))
			p.v = make([]float32, len(p.W))
		}
		for i := range p.W {
			g := p.G[i]
			p.m[i] = b1*p.m[i] + (1-b1)*g
			p.v[i] = b2*p.v[i] + (1-b2)*g*g
			p.W[i] -= lr * p.m[i] / (sqrt32(p.v[i]) + eps)
		}
		p.pack.Store(nil)
		p.zeroGrad()
	}
}

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}

// TrainConfig configures classifier training.
type TrainConfig struct {
	Epochs int
	Batch  int
	LR     float64
	Seed   int64
	// Workers is the data-parallel worker count: each minibatch is sharded
	// across this many network replicas and the shard gradients are reduced
	// in fixed order before the optimizer step. 0 resolves via par.Workers
	// (CATI_WORKERS, then GOMAXPROCS); 1 forces the serial path, which is
	// bitwise-identical to the historical single-goroutine trainer. Results
	// are deterministic for any fixed worker count.
	Workers int
	// Progress, when non-nil, receives (epoch, loss) after each epoch.
	Progress func(epoch int, loss float64)
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	return c
}

// Dataset is a labeled classification dataset: Samples[i] is a flattened
// [SeqLen, EmbDim] matrix, Labels[i] its class index.
type Dataset struct {
	Samples [][]float32
	Labels  []int
	SeqLen  int
	EmbDim  int
}

// Add appends a sample.
func (d *Dataset) Add(sample []float32, label int) {
	d.Samples = append(d.Samples, sample)
	d.Labels = append(d.Labels, label)
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.Samples) }

// ErrEmptyDataset reports training on no data.
var ErrEmptyDataset = errors.New("nn: empty dataset")

// ErrDiverged reports a training run whose loss went non-finite (NaN or
// Inf) — typically a too-high learning rate or corrupt input. Both
// trainers check after every minibatch, so the error surfaces at the
// first poisoned step instead of silently baking NaNs into the weights.
var ErrDiverged = errors.New("nn: training diverged (non-finite loss)")

// ErrNotFinite reports NaN or Inf weights in a network (corrupt or
// diverged artifact).
var ErrNotFinite = errors.New("nn: non-finite weight")

// CheckFinite walks every learnable parameter and reports the first NaN
// or Inf, so loaders can reject poisoned artifacts before inference
// silently propagates them.
func (n *Network) CheckFinite() error {
	for pi, p := range n.Params() {
		for i, w := range p.W {
			f := float64(w)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("%w: param %d element %d = %v", ErrNotFinite, pi, i, w)
			}
		}
	}
	return nil
}

func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// TrainClassifier trains the network with softmax cross-entropy. With more
// than one effective worker (see TrainConfig.Workers) minibatches are
// sharded across per-worker network replicas; otherwise it runs the serial
// trainer.
func TrainClassifier(net *Network, ds *Dataset, classes int, cfg TrainConfig) error {
	return TrainClassifierCtx(context.Background(), net, ds, classes, cfg)
}

// TrainClassifierCtx is TrainClassifier with cooperative cancellation:
// both trainers check ctx at every minibatch boundary (serial) or
// minibatch-shard boundary (parallel) and return ctx.Err() promptly,
// leaving the network in whatever partially-trained state it reached.
func TrainClassifierCtx(ctx context.Context, net *Network, ds *Dataset, classes int, cfg TrainConfig) error {
	cfg = cfg.withDefaults()
	if ds.Len() == 0 {
		return ErrEmptyDataset
	}
	if !net.Trainable() {
		return ErrNotTrainable
	}
	if workers := par.Workers(cfg.Workers); workers > 1 {
		if replicas := trainReplicas(net, workers); replicas != nil {
			return trainClassifierParallel(ctx, net, replicas, ds, classes, cfg)
		}
	}
	return trainClassifierSerial(ctx, net, ds, classes, cfg)
}

// trainClassifierSerial is the single-goroutine trainer; Workers=1 runs
// exactly this code, keeping serial results bit-for-bit reproducible.
func trainClassifierSerial(ctx context.Context, net *Network, ds *Dataset, classes int, cfg TrainConfig) error {
	r := rand.New(rand.NewSource(cfg.Seed))
	opt := NewAdam(cfg.LR)
	params := net.Params()

	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	sampleSize := ds.SeqLen * ds.EmbDim

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var totalLoss float64
		var seen int
		for start := 0; start < len(idx); start += cfg.Batch {
			if err := ctx.Err(); err != nil {
				return err
			}
			end := start + cfg.Batch
			if end > len(idx) {
				end = len(idx)
			}
			b := end - start
			x := NewTensor(b, ds.SeqLen, ds.EmbDim)
			for bi, si := range idx[start:end] {
				copy(x.Data[bi*sampleSize:(bi+1)*sampleSize], ds.Samples[si])
			}
			logits := net.Forward(x, true)
			Softmax(logits)
			// Cross-entropy loss and gradient (probs - onehot) / B.
			grad := NewTensor(b, classes)
			for bi, si := range idx[start:end] {
				row := logits.Data[bi*classes : (bi+1)*classes]
				y := ds.Labels[si]
				p := row[y]
				if p < 1e-9 {
					p = 1e-9
				}
				totalLoss += -math.Log(float64(p))
				for c := 0; c < classes; c++ {
					g := row[c]
					if c == y {
						g -= 1
					}
					grad.Data[bi*classes+c] = g / float32(b)
				}
			}
			if !finite(totalLoss) {
				return fmt.Errorf("epoch %d: %w", epoch, ErrDiverged)
			}
			seen += b
			mMinibatches.Inc()
			mExamples.Add(uint64(b))
			net.Backward(grad)
			opt.Step(params)
		}
		epochDone(totalLoss/float64(seen), seen, time.Since(epochStart))
		if cfg.Progress != nil {
			cfg.Progress(epoch, totalLoss/float64(seen))
		}
	}
	return nil
}

// replicaNetwork mirrors net for one training worker: hyperparameters and
// weight storage are shared with the original while the per-layer scratch
// state (lastX, ReLU mask, pool argmax) and the gradient buffers are
// private, so each worker can run Forward/Backward independently. Returns
// nil when the network contains a layer type it cannot mirror; callers
// then fall back to the serial trainer.
func replicaNetwork(net *Network) *Network {
	out := &Network{Layers: make([]Layer, len(net.Layers))}
	for i, l := range net.Layers {
		switch t := l.(type) {
		case *Conv1D:
			out.Layers[i] = &Conv1D{In: t.In, Out: t.Out, K: t.K, W: shadowParam(t.W), B: shadowParam(t.B)}
		case *Dense:
			out.Layers[i] = &Dense{In: t.In, Out: t.Out, W: shadowParam(t.W), B: shadowParam(t.B)}
		case *ReLU:
			out.Layers[i] = &ReLU{}
		case *MaxPool1D:
			out.Layers[i] = &MaxPool1D{}
		case *Flatten:
			out.Layers[i] = &Flatten{}
		default:
			return nil
		}
	}
	return out
}

// shadowParam shares p's weight storage but owns a private gradient
// buffer; Adam state stays with the original, the only Param the optimizer
// ever steps.
func shadowParam(p *Param) *Param {
	return &Param{W: p.W, G: make([]float32, len(p.W))}
}

// trainReplicas builds one replica per worker, or nil if the architecture
// cannot be replicated.
func trainReplicas(net *Network, workers int) []*Network {
	replicas := make([]*Network, workers)
	for w := range replicas {
		if replicas[w] = replicaNetwork(net); replicas[w] == nil {
			return nil
		}
	}
	return replicas
}

// trainClassifierParallel shards every minibatch across the replicas:
// worker w runs Forward/Backward on a contiguous slice of the shuffled
// batch, accumulating gradients into its private buffers, and the shard
// gradients are reduced into the master parameters in fixed shard order
// before the Adam step. The whole schedule (shuffle, batch boundaries,
// shard boundaries, reduction order) is a pure function of cfg and the
// worker count, so training is deterministic for a fixed worker count; it
// is not bitwise-identical across different counts because float32
// gradient summation is reassociated.
func trainClassifierParallel(ctx context.Context, net *Network, replicas []*Network, ds *Dataset, classes int, cfg TrainConfig) error {
	workers := len(replicas)
	r := rand.New(rand.NewSource(cfg.Seed))
	opt := NewAdam(cfg.LR)
	params := net.Params()
	repParams := make([][]*Param, workers)
	for w, rep := range replicas {
		repParams[w] = rep.Params()
	}

	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	sampleSize := ds.SeqLen * ds.EmbDim
	losses := make([]float64, workers)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var totalLoss float64
		var seen int
		for start := 0; start < len(idx); start += cfg.Batch {
			if err := ctx.Err(); err != nil {
				return err
			}
			end := min(start+cfg.Batch, len(idx))
			b := end - start
			batch := idx[start:end]
			ns := par.Shard(b, workers, func(s, lo, hi int) {
				rep := replicas[s]
				sb := hi - lo
				x := NewTensor(sb, ds.SeqLen, ds.EmbDim)
				for bi, si := range batch[lo:hi] {
					copy(x.Data[bi*sampleSize:(bi+1)*sampleSize], ds.Samples[si])
				}
				logits := rep.Forward(x, true)
				Softmax(logits)
				grad := NewTensor(sb, classes)
				var loss float64
				for bi, si := range batch[lo:hi] {
					row := logits.Data[bi*classes : (bi+1)*classes]
					y := ds.Labels[si]
					p := row[y]
					if p < 1e-9 {
						p = 1e-9
					}
					loss += -math.Log(float64(p))
					for c := 0; c < classes; c++ {
						g := row[c]
						if c == y {
							g -= 1
						}
						// Normalized by the full minibatch, not the shard.
						grad.Data[bi*classes+c] = g / float32(b)
					}
				}
				losses[s] = loss
				rep.Backward(grad)
			})
			for s := 0; s < ns; s++ {
				totalLoss += losses[s]
				for pi, p := range params {
					g := repParams[s][pi].G
					for i, v := range g {
						p.G[i] += v
						g[i] = 0
					}
				}
			}
			if !finite(totalLoss) {
				return fmt.Errorf("epoch %d: %w", epoch, ErrDiverged)
			}
			seen += b
			mMinibatches.Inc()
			mExamples.Add(uint64(b))
			opt.Step(params)
		}
		epochDone(totalLoss/float64(seen), seen, time.Since(epochStart))
		if cfg.Progress != nil {
			cfg.Progress(epoch, totalLoss/float64(seen))
		}
	}
	return nil
}

// predictChunk is the inference minibatch size: Predict processes samples
// in chunks of this many rows, bounding peak activation memory; each chunk
// is one unit of work for the worker pool.
const predictChunk = 256

// Predict returns class probabilities for a batch of samples, fanning
// chunks out across par.Workers(0) workers.
func Predict(net *Network, samples [][]float32, seqLen, embDim int) [][]float32 {
	return PredictN(net, samples, seqLen, embDim, 0)
}

// PredictN is Predict with an explicit worker count (0 resolves via
// par.Workers: CATI_WORKERS, then GOMAXPROCS). Inference-mode Forward
// mutates no layer state, so all workers share net; chunks write disjoint
// output rows, so the result is bitwise-identical for every worker count.
func PredictN(net *Network, samples [][]float32, seqLen, embDim, workers int) [][]float32 {
	out, _ := PredictNCtx(context.Background(), net, samples, seqLen, embDim, workers)
	return out
}

// PredictNCtx is PredictN with cooperative cancellation: once ctx is
// cancelled no further chunks start and the call returns (nil, ctx.Err()).
// It allocates the result (one flat backing plus the row headers) and
// delegates the actual math to PredictIntoCtx, the zero-allocation entry
// point for callers that reuse output buffers.
func PredictNCtx(ctx context.Context, net *Network, samples [][]float32, seqLen, embDim, workers int) ([][]float32, error) {
	if len(samples) == 0 {
		return nil, nil
	}
	classes := net.OutputDim()
	if classes == 0 {
		return predictSlowCtx(ctx, net, samples, seqLen, embDim, workers)
	}
	out := make([][]float32, len(samples))
	flat := make([]float32, len(samples)*classes)
	for i := range out {
		out[i] = flat[i*classes : (i+1)*classes : (i+1)*classes]
	}
	if err := PredictIntoCtx(ctx, net, samples, seqLen, embDim, workers, out); err != nil {
		return nil, err
	}
	return out, nil
}

// predictSlowCtx is the generic chunked path through Layer.Forward, kept
// for architectures the fast path cannot size (no dense output layer).
func predictSlowCtx(ctx context.Context, net *Network, samples [][]float32, seqLen, embDim, workers int) ([][]float32, error) {
	out := make([][]float32, len(samples))
	chunks := (len(samples) + predictChunk - 1) / predictChunk
	err := par.ForEachCtx(ctx, chunks, par.Workers(workers), func(ci int) {
		start := ci * predictChunk
		end := min(start+predictChunk, len(samples))
		b := end - start
		x := NewTensor(b, seqLen, embDim)
		size := seqLen * embDim
		for bi, s := range samples[start:end] {
			copy(x.Data[bi*size:(bi+1)*size], s)
		}
		logits := net.Forward(x, false)
		Softmax(logits)
		c := logits.Dim(1)
		for bi := 0; bi < b; bi++ {
			row := make([]float32, c)
			copy(row, logits.Data[bi*c:(bi+1)*c])
			out[start+bi] = row
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Argmax returns the index of the largest probability.
func Argmax(row []float32) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// netState is the serialized form: architecture hyperparameters plus flat
// weights, layer by layer.
type netState struct {
	SeqLen, EmbDim       int
	Conv1, Conv2, Hidden int
	Classes              int
	Weights              [][]float32
}

// EncodeCNN serializes a network built by NewCNN along with its
// architecture so DecodeCNN can rebuild it.
func EncodeCNN(net *Network, seqLen, embDim, conv1, conv2, hidden, classes int) ([]byte, error) {
	st := netState{
		SeqLen: seqLen, EmbDim: embDim,
		Conv1: conv1, Conv2: conv2, Hidden: hidden, Classes: classes,
	}
	for _, p := range net.Params() {
		w := make([]float32, len(p.W))
		copy(w, p.W)
		st.Weights = append(st.Weights, w)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("nn: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// maxDecodeDim bounds each architecture dimension DecodeCNN accepts, so a
// forged or corrupt blob cannot demand a pathological allocation.
const maxDecodeDim = 1 << 20

// DecodeCNN rebuilds a serialized network.
func DecodeCNN(data []byte) (*Network, error) {
	var st netState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("nn: decode: %w", err)
	}
	for _, d := range []int{st.SeqLen, st.EmbDim, st.Conv1, st.Conv2, st.Hidden, st.Classes} {
		if d <= 0 || d > maxDecodeDim {
			return nil, fmt.Errorf("nn: decode: architecture dimension %d out of range", d)
		}
	}
	net := NewCNN(st.SeqLen, st.EmbDim, st.Conv1, st.Conv2, st.Hidden, st.Classes, 0)
	params := net.Params()
	if len(params) != len(st.Weights) {
		return nil, fmt.Errorf("nn: decode: %d weight blocks for %d params", len(st.Weights), len(params))
	}
	for i, p := range params {
		if len(p.W) != len(st.Weights[i]) {
			return nil, fmt.Errorf("nn: decode: param %d size %d != %d", i, len(st.Weights[i]), len(p.W))
		}
		copy(p.W, st.Weights[i])
	}
	return net, nil
}
