package nn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gemm"
)

// randomBatch builds n random samples shaped [seqLen, embDim].
func randomBatch(r *rand.Rand, n, seqLen, embDim int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		s := make([]float32, seqLen*embDim)
		for j := range s {
			s[j] = r.Float32()*2 - 1
		}
		out[i] = s
	}
	return out
}

// TestFastPathMatchesLayerForward checks that the arena fast path produces
// the same probabilities as the generic Layer.Forward walk, on every
// available gemm backend. Tolerance covers float32 reassociation between
// the blocked and portable GEMM orders.
func TestFastPathMatchesLayerForward(t *testing.T) {
	const seqLen, embDim, classes = 9, 8, 3
	r := rand.New(rand.NewSource(21))
	net := NewCNN(seqLen, embDim, 6, 10, 24, classes, 13)
	samples := randomBatch(r, 17, seqLen, embDim)

	// Reference: generic path (predictSlowCtx drives Layer.Forward).
	want, err := predictSlowCtx(context.Background(), net, samples, seqLen, embDim, 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, backend := range gemm.BackendNames() {
		t.Run(backend, func(t *testing.T) {
			if err := gemm.Select(backend); err != nil {
				t.Skipf("backend %s: %v", backend, err)
			}
			defer func() {
				if err := gemm.Select("auto"); err != nil {
					t.Fatal(err)
				}
			}()
			got, err := PredictNCtx(context.Background(), net, samples, seqLen, embDim, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				for c := range want[i] {
					if d := math.Abs(float64(want[i][c] - got[i][c])); d > 1e-5 {
						t.Fatalf("sample %d class %d: slow %v fast %v (Δ %v)",
							i, c, want[i][c], got[i][c], d)
					}
				}
				if Argmax(want[i]) != Argmax(got[i]) {
					t.Fatalf("sample %d argmax differs", i)
				}
			}
		})
	}
}

// TestPredictIntoCtxValidation exercises the caller-buffer contract.
func TestPredictIntoCtxValidation(t *testing.T) {
	const seqLen, embDim = 5, 4
	r := rand.New(rand.NewSource(3))
	net := NewCNN(seqLen, embDim, 4, 4, 8, 2, 1)
	samples := randomBatch(r, 3, seqLen, embDim)

	if err := PredictIntoCtx(context.Background(), net, samples, seqLen, embDim, 1, make([][]float32, 2)); err == nil {
		t.Error("row-count mismatch should fail")
	}
	short := [][]float32{make([]float32, 2), make([]float32, 1), make([]float32, 2)}
	if err := PredictIntoCtx(context.Background(), net, samples, seqLen, embDim, 1, short); err == nil {
		t.Error("short row should fail")
	}
	out := [][]float32{make([]float32, 2), make([]float32, 2), make([]float32, 2)}
	if err := PredictIntoCtx(context.Background(), net, samples, seqLen, embDim, 1, out); err != nil {
		t.Fatal(err)
	}
	for i, row := range out {
		var sum float64
		for _, v := range row {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	if err := PredictIntoCtx(context.Background(), net, nil, seqLen, embDim, 1, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestQuantizeNetworkAccuracy quantizes a trained network and checks that
// int8 inference agrees with float32 on nearly every prediction.
func TestQuantizeNetworkAccuracy(t *testing.T) {
	const seqLen, embDim, classes = 9, 8, 2
	r := rand.New(rand.NewSource(3))
	ds := &Dataset{SeqLen: seqLen, EmbDim: embDim}
	for i := 0; i < 200; i++ {
		y := i % 2
		s := make([]float32, seqLen*embDim)
		for j := range s {
			s[j] = r.Float32()*0.4 - 0.2
		}
		for l := 0; l < seqLen; l++ {
			s[l*embDim+y] += 1.0
		}
		ds.Add(s, y)
	}
	net := NewCNN(seqLen, embDim, 8, 8, 32, classes, 7)
	if err := TrainClassifier(net, ds, classes, TrainConfig{Epochs: 3, Batch: 32, LR: 2e-3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	qnet, err := QuantizeNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	if net.Trainable() == false {
		t.Error("float network must stay trainable")
	}
	if !qnet.Quantized() || qnet.Trainable() {
		t.Error("quantized network must be inference-only")
	}

	fp := Predict(net, ds.Samples, seqLen, embDim)
	qp := Predict(qnet, ds.Samples, seqLen, embDim)
	agree := 0
	for i := range fp {
		if Argmax(fp[i]) == Argmax(qp[i]) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(fp)); frac < 0.98 {
		t.Errorf("int8/f32 argmax agreement %.3f, want ≥0.98", frac)
	}
}

// TestQuantizedNotTrainable checks the trainer rejects quantized networks
// up front instead of panicking mid-epoch.
func TestQuantizedNotTrainable(t *testing.T) {
	net := NewCNN(5, 4, 4, 4, 8, 2, 1)
	qnet, err := QuantizeNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{SeqLen: 5, EmbDim: 4}
	ds.Add(make([]float32, 20), 0)
	if err := TrainClassifier(qnet, ds, 2, TrainConfig{}); !errors.Is(err, ErrNotTrainable) {
		t.Errorf("error = %v, want ErrNotTrainable", err)
	}
}

// TestEncodeDecodeQCNN round-trips a quantized network and checks the
// rebuilt network predicts identically.
func TestEncodeDecodeQCNN(t *testing.T) {
	const seqLen, embDim, classes = 9, 8, 3
	net := NewCNN(seqLen, embDim, 4, 4, 16, classes, 5)
	qnet, err := QuantizeNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	samples := randomBatch(r, 5, seqLen, embDim)
	want := Predict(qnet, samples, seqLen, embDim)

	blob, err := EncodeQCNN(qnet, seqLen, embDim, 4, 4, 16, classes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeQCNN(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trainable() {
		t.Error("decoded quantized network must be inference-only")
	}
	probs := Predict(got, samples, seqLen, embDim)
	for i := range want {
		for c := range want[i] {
			if want[i][c] != probs[i][c] {
				t.Fatalf("sample %d class %d differs after round trip", i, c)
			}
		}
	}

	if _, err := DecodeQCNN([]byte("junk")); err == nil {
		t.Error("DecodeQCNN(junk) should fail")
	}
	// A float artifact is not a quantized artifact.
	fblob, err := EncodeCNN(net, seqLen, embDim, 4, 4, 16, classes)
	if err != nil {
		t.Fatal(err)
	}
	if 2*len(blob) >= len(fblob) {
		t.Errorf("quantized artifact %dB not substantially smaller than float %dB", len(blob), len(fblob))
	}
}

// TestEncodeQCNNRejectsFloatNetwork: only quantized stacks serialize.
func TestEncodeQCNNRejectsFloatNetwork(t *testing.T) {
	net := NewCNN(5, 4, 4, 4, 8, 2, 1)
	if _, err := EncodeQCNN(net, 5, 4, 4, 4, 8, 2); err == nil {
		t.Error("EncodeQCNN on a float network should fail")
	}
}

// TestOutputDim covers the fast-path class sizing.
func TestOutputDim(t *testing.T) {
	net := NewCNN(5, 4, 4, 4, 8, 3, 1)
	if got := net.OutputDim(); got != 3 {
		t.Errorf("OutputDim = %d, want 3", got)
	}
	qnet, err := QuantizeNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	if got := qnet.OutputDim(); got != 3 {
		t.Errorf("quantized OutputDim = %d, want 3", got)
	}
	if got := (&Network{Layers: []Layer{&ReLU{}}}).OutputDim(); got != 0 {
		t.Errorf("OutputDim without dense = %d, want 0", got)
	}
}

// TestIm2col pins the unfold layout: row (bi*l+li) is the k-window around
// li, zero-padded at the sequence edges.
func TestIm2col(t *testing.T) {
	const b, l, in, k = 1, 4, 2, 3
	x := []float32{1, 2, 3, 4, 5, 6, 7, 8} // [1, 4, 2]
	dst := make([]float32, b*l*k*in)
	im2col(dst, x, b, l, in, k)
	want := []float32{
		0, 0, 1, 2, 3, 4, // li=0: pad, x[0], x[1]
		1, 2, 3, 4, 5, 6, // li=1
		3, 4, 5, 6, 7, 8, // li=2
		5, 6, 7, 8, 0, 0, // li=3: x[2], x[3], pad
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("im2col[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

// TestAdamStepDropsPackedWeights: the fast path packs each layer's
// weights on first use. An optimizer step must drop those packs, so the
// next prediction sees the stepped weights: bit for bit the answers of a
// freshly decoded copy of the stepped network, on every backend.
func TestAdamStepDropsPackedWeights(t *testing.T) {
	const seqLen, embDim, conv1, conv2, hidden, classes = 9, 8, 6, 10, 24, 3
	r := rand.New(rand.NewSource(5))
	net := NewCNN(seqLen, embDim, conv1, conv2, hidden, classes, 13)
	samples := randomBatch(r, 11, seqLen, embDim)
	ctx := context.Background()
	for _, backend := range gemm.BackendNames() {
		t.Run(backend, func(t *testing.T) {
			if err := gemm.Select(backend); err != nil {
				t.Skipf("backend %s: %v", backend, err)
			}
			defer func() {
				if err := gemm.Select("auto"); err != nil {
					t.Fatal(err)
				}
			}()
			before, err := PredictNCtx(ctx, net, samples, seqLen, embDim, 1)
			if err != nil {
				t.Fatal(err)
			}
			params := net.Params()
			for _, p := range params {
				for i := range p.G {
					p.G[i] = r.Float32() - 0.5
				}
			}
			NewAdam(0.05).Step(params)
			after, err := PredictNCtx(ctx, net, samples, seqLen, embDim, 1)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := EncodeCNN(net, seqLen, embDim, conv1, conv2, hidden, classes)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := DecodeCNN(blob)
			if err != nil {
				t.Fatal(err)
			}
			want, err := PredictNCtx(ctx, fresh, samples, seqLen, embDim, 1)
			if err != nil {
				t.Fatal(err)
			}
			moved := false
			for i := range want {
				for c := range want[i] {
					if math.Float32bits(after[i][c]) != math.Float32bits(want[i][c]) {
						t.Fatalf("sample %d class %d: stepped net %v, fresh decode %v (stale packed weights?)",
							i, c, after[i][c], want[i][c])
					}
					moved = moved || after[i][c] != before[i][c]
				}
			}
			if !moved {
				t.Fatal("the Adam step did not change any prediction; the test proves nothing")
			}
		})
	}
}
