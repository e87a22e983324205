package classify

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ctypes"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/vuc"
)

// tinyConfig keeps tests fast on one core.
func tinyConfig() Config {
	return Config{
		Window: 5,
		Conv1:  8, Conv2: 8, Hidden: 64,
		Train:       nn.TrainConfig{Epochs: 2, Batch: 32, LR: 2e-3},
		MaxPerStage: 1500,
		Seed:        1,
	}
}

var (
	tcOnce sync.Once
	tcCorp *corpus.Corpus
	tcPipe *Pipeline
	tcErr  error
)

// sharedPipeline trains one small pipeline reused across tests (training
// even a tiny CNN costs seconds on a single core).
func sharedPipeline(t *testing.T) (*corpus.Corpus, *Pipeline) {
	t.Helper()
	tcOnce.Do(func() {
		tcCorp, tcErr = corpus.Build(corpus.BuildConfig{
			Name:     "train",
			Binaries: 6,
			Profile:  synth.DefaultProfile("train"),
			Window:   5,
			Seed:     10,
		})
		if tcErr != nil {
			return
		}
		tcPipe, tcErr = Train(tcCorp, tinyConfig())
	})
	if tcErr != nil {
		t.Fatal(tcErr)
	}
	return tcCorp, tcPipe
}

func TestTrainProducesStages(t *testing.T) {
	_, p := sharedPipeline(t)
	for _, stage := range []ctypes.Stage{ctypes.Stage1, ctypes.Stage21, ctypes.Stage22, ctypes.Stage33} {
		if p.Stages[stage] == nil {
			t.Errorf("missing stage %s", stage)
		}
	}
	if p.Embed == nil || len(p.Embed.Words) == 0 {
		t.Fatal("no embedding")
	}
}

func TestEmbeddingShape(t *testing.T) {
	c, p := sharedPipeline(t)
	toks := c.Tokens(c.All()[0])
	s := p.EmbedWindow(toks)
	if len(s) != p.Cfg.SeqLen()*p.Cfg.InstDim() {
		t.Fatalf("sample length %d", len(s))
	}
}

func TestPredictionBeatsChanceOnTraining(t *testing.T) {
	c, p := sharedPipeline(t)
	refs := c.All()
	if len(refs) > 2000 {
		refs = refs[:2000]
	}
	samples := make([][]float32, len(refs))
	var labels []ctypes.Class
	for i, r := range refs {
		samples[i] = p.EmbedWindow(c.Tokens(r))
		_, s := c.At(r)
		labels = append(labels, s.Class)
	}
	preds, err := p.PredictVUCs(samples)
	if err != nil {
		t.Fatal(err)
	}
	// Stage-1 training accuracy must beat the majority baseline.
	correct, ptrTotal := 0, 0
	for i := range preds {
		lbl, ok := StagePrediction(&preds[i], ctypes.Stage1)
		if !ok {
			t.Fatal("no stage1 prediction")
		}
		want, _ := ctypes.StageLabel(ctypes.Stage1, labels[i])
		if lbl == want {
			correct++
		}
		if want == 0 {
			ptrTotal++
		}
	}
	acc := float64(correct) / float64(len(preds))
	maj := float64(ptrTotal) / float64(len(preds))
	if maj < 0.5 {
		maj = 1 - maj
	}
	if acc < maj {
		t.Errorf("stage1 training accuracy %.3f below majority %.3f", acc, maj)
	}
	// Composed classes must be valid and confidences in (0, 1].
	for i := range preds {
		if preds[i].Class < ctypes.ClassPtrVoid || preds[i].Class > ctypes.ClassEnum {
			t.Fatalf("bad class %d", preds[i].Class)
		}
		if preds[i].Confidence <= 0 || preds[i].Confidence > 1+1e-6 {
			t.Fatalf("bad confidence %v", preds[i].Confidence)
		}
	}
}

func TestVoting(t *testing.T) {
	// Hand-built stage probabilities: two VUCs disagree at stage 1; the
	// clamped vote must follow the high-confidence one.
	mk := func(p1 float32) VUCPrediction {
		return VUCPrediction{StageProbs: map[ctypes.Stage][]float32{
			ctypes.Stage1:  {p1, 1 - p1},
			ctypes.Stage21: {0.2, 0.7, 0.1},
			ctypes.Stage22: {0.1, 0.1, 0.1, 0.1, 0.6},
			ctypes.Stage33: {0.9, 0.02, 0.01, 0.01, 0.02, 0.01, 0.01, 0.01, 0.01},
		}}
	}
	// Clamped: pointer sums 1.0+0.28+0.28 = 1.56 vs non-pointer
	// 0.08+0.72+0.72 = 1.52 → pointer wins only because 0.92 ≥ 0.9 clamps
	// to 1.0.
	votes := []VUCPrediction{mk(0.92), mk(0.28), mk(0.28)}
	vp := VoteVariable(votes, 0.9)
	if vp.StageLabels[ctypes.Stage1] != 0 {
		t.Errorf("stage1 vote = %d, want pointer", vp.StageLabels[ctypes.Stage1])
	}
	if vp.Class != ctypes.ClassPtrStruct {
		t.Errorf("class = %s, want struct*", vp.Class)
	}
	// Without clamping the same votes flip: 0.92+0.56 = 1.48 vs 1.52.
	vp2 := VoteVariable(votes, 0)
	if vp2.StageLabels[ctypes.Stage1] != 1 {
		t.Errorf("unclamped stage1 vote = %d, want non-pointer", vp2.StageLabels[ctypes.Stage1])
	}
	if vp2.Class != ctypes.ClassInt {
		t.Errorf("unclamped class = %s, want int", vp2.Class)
	}
}

func TestVotingEmpty(t *testing.T) {
	vp := VoteVariable(nil, DefaultClamp)
	if vp.Class != ctypes.ClassInt {
		t.Errorf("empty vote class = %s", vp.Class)
	}
}

func TestOcclusion(t *testing.T) {
	c, p := sharedPipeline(t)
	toks := c.Tokens(c.All()[0])
	eps, ok := p.Epsilon(toks, ctypes.Stage1)
	if !ok {
		t.Fatal("epsilon failed")
	}
	if len(eps) != p.Cfg.SeqLen() {
		t.Fatalf("eps length %d", len(eps))
	}
	for k, e := range eps {
		if e < 0 {
			t.Errorf("eps[%d] = %v negative", k, e)
		}
	}
	// Aggregation over a handful of windows.
	var windows [][]vuc.InstTok
	for _, r := range c.All()[:10] {
		windows = append(windows, c.Tokens(r))
	}
	dist := p.AggregateEpsilon(windows, ctypes.Stage1)
	if dist.Count != 10 {
		t.Fatalf("aggregated %d", dist.Count)
	}
	for pos := range dist.Share {
		for ti := 0; ti < NumThresholds-1; ti++ {
			// Shares are cumulative-from-above: (t,1) ⊇ (t+0.1,1).
			if dist.Share[pos][ti]+1e-9 < dist.Share[pos][ti+1] {
				t.Fatalf("distribution not monotone at pos %d", pos)
			}
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	c, p := sharedPipeline(t)
	blob, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Same predictions after decode.
	refs := c.All()[:64]
	samples := make([][]float32, len(refs))
	for i, r := range refs {
		samples[i] = p.EmbedWindow(c.Tokens(r))
	}
	a, err := p.PredictVUCs(samples)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.PredictVUCs(samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Class != b[i].Class {
			t.Fatalf("class mismatch at %d after round trip", i)
		}
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("Decode(garbage) should fail")
	}
}

// TestEncodeByteStable: the stage networks encode in stage order, so a
// decoded pipeline re-encodes to the same bytes.
func TestEncodeByteStable(t *testing.T) {
	_, p := sharedPipeline(t)
	blob, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stages) != len(p.Stages) {
		t.Fatalf("decoded %d stages, want %d", len(got.Stages), len(p.Stages))
	}
	again, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("re-encoded pipeline differs from the first encoding")
	}
}

func TestTrainErrors(t *testing.T) {
	empty := &corpus.Corpus{Window: 5}
	if _, err := Train(empty, tinyConfig()); !errors.Is(err, ErrNoData) {
		t.Errorf("error = %v, want ErrNoData", err)
	}
	c, _ := sharedPipeline(t)
	bad := tinyConfig()
	bad.Window = 3 // corpus window is 5
	if _, err := Train(c, bad); err == nil {
		t.Error("window mismatch should fail")
	}
}

func TestFlatPipeline(t *testing.T) {
	c, _ := sharedPipeline(t)
	cfg := tinyConfig()
	cfg.Flat = true
	cfg.MaxPerStage = 800
	cfg.Train.Epochs = 1
	p, err := Train(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.FlatNet == nil {
		t.Fatal("flat net missing")
	}
	refs := c.All()[:32]
	samples := make([][]float32, len(refs))
	for i, r := range refs {
		samples[i] = p.EmbedWindow(c.Tokens(r))
	}
	preds, err := p.PredictVUCs(samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if preds[i].Class < ctypes.ClassPtrVoid || preds[i].Class > ctypes.ClassEnum {
			t.Fatalf("bad flat class %d", preds[i].Class)
		}
	}
	// Voting over flat predictions.
	vp := VoteVariable(preds, DefaultClamp)
	if vp.Class < ctypes.ClassPtrVoid || vp.Class > ctypes.ClassEnum {
		t.Fatalf("bad voted class %d", vp.Class)
	}
}

func TestCapRefsStratification(t *testing.T) {
	// 1000 of label 0, 10 of label 1: the cap must keep the rare label.
	var idxs, labels []int
	for i := 0; i < 1000; i++ {
		idxs = append(idxs, i)
		labels = append(labels, 0)
	}
	for i := 1000; i < 1010; i++ {
		idxs = append(idxs, i)
		labels = append(labels, 1)
	}
	sel := capRefs(idxs, labels, 2, 300, 1)
	if len(sel) > 520 {
		t.Fatalf("cap kept %d samples", len(sel))
	}
	rare := 0
	for _, i := range sel {
		if i >= 1000 {
			rare++
		}
	}
	if rare != 10 {
		t.Errorf("rare label kept %d of 10 under the floor", rare)
	}
	// No cap: identity.
	if got := capRefs(idxs, labels, 2, 0, 1); len(got) != len(idxs) {
		t.Error("cap 0 should be identity")
	}
	if got := capRefs(idxs, labels, 2, 5000, 1); len(got) != len(idxs) {
		t.Error("cap above size should be identity")
	}
}

func TestEmbedWindowContents(t *testing.T) {
	_, p := sharedPipeline(t)
	// A window of identical instructions embeds to repeated rows; PAD rows
	// are not all-zero only if PAD is in vocabulary, but BLANK-only rows
	// must differ from a real instruction row.
	real := vuc.InstTok{"mov", "%rax", "-0xIMM(%rbp)"}
	blank := vuc.InstTok{vuc.TokBlank, vuc.TokBlank, vuc.TokBlank}
	toks := make([]vuc.InstTok, p.Cfg.SeqLen())
	for i := range toks {
		toks[i] = real
	}
	a := p.EmbedWindow(toks)
	toks[0] = blank
	b := p.EmbedWindow(toks)
	rowLen := p.Cfg.InstDim()
	same := true
	for k := 0; k < rowLen; k++ {
		if a[k] != b[k] {
			same = false
			break
		}
	}
	if same {
		t.Error("blank row embeds identically to a real instruction row")
	}
	// Rows beyond the first are untouched.
	for k := rowLen; k < len(a); k++ {
		if a[k] != b[k] {
			t.Fatal("occluding row 0 changed other rows")
		}
	}
}
