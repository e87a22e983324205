package classify

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/ctypes"
	"repro/internal/nn"
	"repro/internal/word2vec"
)

// cfgState mirrors Config without the nn.TrainConfig.Progress callback
// (gob cannot encode func-typed fields).
type cfgState struct {
	EmbedDim, Window     int
	Conv1, Conv2, Hidden int
	W2V                  word2vec.Config
	TrainEpochs          int
	TrainBatch           int
	TrainLR              float64
	TrainSeed            int64
	MaxPerStage          int
	Flat                 bool
	Seed                 int64
	// Arch is absent in pre-tag artifacts; gob leaves it "" and
	// Config.WithDefaults resolves that to x86_64.
	Arch string
}

func toCfgState(c Config) cfgState {
	return cfgState{
		EmbedDim: c.EmbedDim, Window: c.Window,
		Conv1: c.Conv1, Conv2: c.Conv2, Hidden: c.Hidden,
		W2V:         c.W2V,
		TrainEpochs: c.Train.Epochs, TrainBatch: c.Train.Batch,
		TrainLR: c.Train.LR, TrainSeed: c.Train.Seed,
		MaxPerStage: c.MaxPerStage, Flat: c.Flat, Seed: c.Seed,
		Arch: c.Arch,
	}
}

func fromCfgState(s cfgState) Config {
	return Config{
		EmbedDim: s.EmbedDim, Window: s.Window,
		Conv1: s.Conv1, Conv2: s.Conv2, Hidden: s.Hidden,
		W2V: s.W2V,
		Train: nn.TrainConfig{
			Epochs: s.TrainEpochs, Batch: s.TrainBatch,
			LR: s.TrainLR, Seed: s.TrainSeed,
		},
		MaxPerStage: s.MaxPerStage, Flat: s.Flat, Seed: s.Seed,
		Arch: s.Arch,
	}
}

// pipelineState is the gob form of a trained pipeline. Stages are listed
// in stage order, so one pipeline always encodes to the same bytes (and
// its artifact to one fingerprint). Quantized marks int8 stage payloads
// (nn.EncodeQCNN instead of nn.EncodeCNN); the model artifact
// additionally carries the distinction in its envelope kind tag, so
// pre-quantization builds reject such files at the envelope, not here.
type pipelineState struct {
	Cfg       cfgState
	Embed     []byte
	Stages    []stageState
	FlatNet   []byte
	Quantized bool
}

// stageState is one stage CNN's serialized network.
type stageState struct {
	Stage int
	Net   []byte
}

// legacyPipelineState is the earlier layout, which kept the stages in a
// map that gob writes in random order. Decode still reads it. Reusing the
// field name Stages with a new type makes builds that only know this
// layout reject the new one with a gob type error, instead of loading a
// pipeline without stages.
type legacyPipelineState struct {
	Cfg       cfgState
	Embed     []byte
	Stages    map[int][]byte
	FlatNet   []byte
	Quantized bool
}

// Quantized reports whether the pipeline's networks run int8 inference.
func (p *Pipeline) Quantized() bool {
	for _, net := range p.Stages {
		if net.Quantized() {
			return true
		}
	}
	return p.FlatNet != nil && p.FlatNet.Quantized()
}

// Quantize returns a copy of the pipeline with every stage CNN converted
// to its int8 inference form (per-output-channel symmetric weights,
// dynamic per-tensor activations — see internal/gemm/quant.go). The
// embedding matrix and config are shared with the original, which is not
// modified. The result is inference-only.
func (p *Pipeline) Quantize() (*Pipeline, error) {
	out := &Pipeline{Cfg: p.Cfg, Embed: p.Embed, Stages: make(map[ctypes.Stage]*nn.Network, len(p.Stages))}
	for stage, net := range p.Stages {
		q, err := nn.QuantizeNetwork(net)
		if err != nil {
			return nil, fmt.Errorf("classify: quantize %s: %w", stage, err)
		}
		out.Stages[stage] = q
	}
	if p.FlatNet != nil {
		q, err := nn.QuantizeNetwork(p.FlatNet)
		if err != nil {
			return nil, fmt.Errorf("classify: quantize flat: %w", err)
		}
		out.FlatNet = q
	}
	return out, nil
}

// Encode serializes the pipeline (embedding model + all stage CNNs).
func (p *Pipeline) Encode() ([]byte, error) {
	st := pipelineState{Cfg: toCfgState(p.Cfg), Quantized: p.Quantized()}
	var err error
	if st.Embed, err = p.Embed.Encode(); err != nil {
		return nil, err
	}
	enc := func(net *nn.Network, arity int) ([]byte, error) {
		if st.Quantized {
			return nn.EncodeQCNN(net, p.Cfg.SeqLen(), p.Cfg.InstDim(),
				p.Cfg.Conv1, p.Cfg.Conv2, p.Cfg.Hidden, arity)
		}
		return nn.EncodeCNN(net, p.Cfg.SeqLen(), p.Cfg.InstDim(),
			p.Cfg.Conv1, p.Cfg.Conv2, p.Cfg.Hidden, arity)
	}
	for _, stage := range ctypes.AllStages() {
		net := p.Stages[stage]
		if net == nil {
			continue
		}
		blob, err := enc(net, ctypes.StageArity(stage))
		if err != nil {
			return nil, fmt.Errorf("classify: encode %s: %w", stage, err)
		}
		st.Stages = append(st.Stages, stageState{Stage: int(stage), Net: blob})
	}
	if p.FlatNet != nil {
		blob, err := enc(p.FlatNet, ctypes.NumClasses)
		if err != nil {
			return nil, fmt.Errorf("classify: encode flat: %w", err)
		}
		st.FlatNet = blob
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("classify: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// CheckFinite validates every weight in the pipeline — the embedding
// matrix and each stage CNN — reporting the first NaN or Inf. Loaders use
// it to reject diverged or otherwise poisoned artifacts up front, before
// inference silently propagates non-finite activations.
func (p *Pipeline) CheckFinite() error {
	if p.Embed != nil {
		for i, row := range p.Embed.Vecs {
			for j, v := range row {
				f := float64(v)
				if math.IsNaN(f) || math.IsInf(f, 0) {
					return fmt.Errorf("classify: embedding row %d element %d: %w", i, j, nn.ErrNotFinite)
				}
			}
		}
	}
	for stage, net := range p.Stages {
		if err := net.CheckFinite(); err != nil {
			return fmt.Errorf("classify: stage %s: %w", stage, err)
		}
	}
	if p.FlatNet != nil {
		if err := p.FlatNet.CheckFinite(); err != nil {
			return fmt.Errorf("classify: flat: %w", err)
		}
	}
	return nil
}

// Decode rebuilds a serialized pipeline, in either layout.
func Decode(data []byte) (*Pipeline, error) {
	st, err := decodeState(data)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{Cfg: fromCfgState(st.Cfg), Stages: make(map[ctypes.Stage]*nn.Network)}
	if p.Embed, err = word2vec.Decode(st.Embed); err != nil {
		return nil, err
	}
	decodeNet := nn.DecodeCNN
	if st.Quantized {
		decodeNet = nn.DecodeQCNN
	}
	for _, ss := range st.Stages {
		net, err := decodeNet(ss.Net)
		if err != nil {
			return nil, fmt.Errorf("classify: decode stage %d: %w", ss.Stage, err)
		}
		p.Stages[ctypes.Stage(ss.Stage)] = net
	}
	if len(st.FlatNet) > 0 {
		if p.FlatNet, err = decodeNet(st.FlatNet); err != nil {
			return nil, fmt.Errorf("classify: decode flat: %w", err)
		}
	}
	return p, nil
}

// decodeState reads a pipelineState, falling back to the legacy map
// layout, whose Stages field gob refuses to decode into a slice.
func decodeState(data []byte) (pipelineState, error) {
	var st pipelineState
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st)
	if err == nil {
		return st, nil
	}
	var old legacyPipelineState
	if gob.NewDecoder(bytes.NewReader(data)).Decode(&old) != nil {
		return st, fmt.Errorf("classify: decode: %w", err)
	}
	st = pipelineState{Cfg: old.Cfg, Embed: old.Embed, FlatNet: old.FlatNet, Quantized: old.Quantized}
	for stage, blob := range old.Stages {
		st.Stages = append(st.Stages, stageState{Stage: stage, Net: blob})
	}
	return st, nil
}
