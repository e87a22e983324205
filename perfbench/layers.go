package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/elfx"
	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/vareco"
	"repro/internal/vuc"
)

// The traced corpus-tree run replays each binary through the layers'
// public functions — elfx.Read, vareco.RecoverOpts, vuc.Extract,
// Pipeline.EmbedWindow, Pipeline.PredictVUCsCtx, classify.VoteVariable —
// with a span around each call, the way core's InferImageCtx chains them,
// and checks that the parts add up to InferImageCtx on the same binary.

// span is one timed call of the replay. Spans stay in memory and are
// written out when the run ends.
type span struct {
	Binary  string `json:"binary"`
	Rep     int    `json:"rep"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// spanLog collects spans relative to one epoch.
type spanLog struct {
	epoch time.Time
	spans []span
}

// time runs fn inside a span and returns its duration.
func (l *spanLog) time(bin string, rep int, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.spans = append(l.spans, span{Binary: bin, Rep: rep, Name: name, StartNS: int64(t0.Sub(l.epoch)), DurNS: int64(d)})
	return d
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// parts are the replayed layer calls, in pipeline order.
var parts = []string{"elfx.read", "vareco.recover", "vuc.extract", "classify.embed", "classify.predict", "classify.vote"}

// replay is one binary's pass through the layers.
type replay struct {
	dur          [6]time.Duration // per part
	insts, vucs  int
	embedAlloc   float64
	predictAlloc float64
	tokens       int
	unknown      int
	evals        int
	useful       int
	samples      [][]float32
	vars         []core.InferredVar
}

// replayBinary runs one image through the layers as core.InferImageCtx
// does: same options, same window, same worker fan-out.
func replayBinary(ctx context.Context, m *core.CATI, img []byte, log *spanLog, name string, rep int) (*replay, error) {
	p := m.Pipeline
	workers := par.Workers(p.Cfg.Workers)
	r := &replay{}
	var err error
	var bin *elfx.Binary
	var rec *vareco.Recovery
	var vucs []vuc.VUC
	r.dur[0] = log.time(name, rep, parts[0], func() { bin, err = elfx.Read(img) })
	if err != nil {
		return nil, err
	}
	r.dur[1] = log.time(name, rep, parts[1], func() { rec, err = vareco.RecoverOpts(bin, vareco.Options{Dataflow: true}) })
	if err != nil {
		return nil, err
	}
	r.insts = len(rec.Insts)
	r.dur[2] = log.time(name, rep, parts[2], func() {
		vucs = vuc.Extract(rec, vuc.Config{Window: p.Cfg.WithDefaults().Window})
	})
	r.vucs = len(vucs)
	if len(vucs) == 0 {
		return r, nil
	}
	r.samples = make([][]float32, len(vucs))
	a0 := allocBytes()
	r.dur[3] = log.time(name, rep, parts[3], func() {
		err = par.ForEachCtx(ctx, len(vucs), workers, func(i int) {
			r.samples[i] = p.EmbedWindow(vucs[i].Tokens)
		})
	})
	r.embedAlloc = allocBytes() - a0
	if err != nil {
		return nil, err
	}
	var preds []classify.VUCPrediction
	a0 = allocBytes()
	r.dur[4] = log.time(name, rep, parts[4], func() { preds, err = p.PredictVUCsCtx(ctx, r.samples) })
	r.predictAlloc = allocBytes() - a0
	if err != nil {
		return nil, err
	}
	var groups map[vuc.VarKey][]classify.VUCPrediction
	var voted map[vuc.VarKey]classify.VarPrediction
	r.dur[5] = log.time(name, rep, parts[5], func() {
		groups = make(map[vuc.VarKey][]classify.VUCPrediction)
		for i := range vucs {
			groups[vucs[i].Var] = append(groups[vucs[i].Var], preds[i])
		}
		sizeOf := make(map[vuc.VarKey]int)
		for _, f := range rec.Funcs {
			for _, v := range f.Vars {
				sizeOf[vuc.VarKey{FuncLow: f.Low, Slot: v.Slot}] = v.Size
			}
		}
		for _, g := range rec.Globals {
			sizeOf[vuc.GlobalKey(g.Addr)] = g.Size
		}
		voted = make(map[vuc.VarKey]classify.VarPrediction, len(groups))
		r.vars = make([]core.InferredVar, 0, len(groups))
		for key, g := range groups {
			vp := classify.VoteVariable(g, m.Clamp)
			voted[key] = vp
			r.vars = append(r.vars, core.InferredVar{
				FuncLow: key.FuncLow, Slot: key.Slot, Global: key.Global,
				Size: sizeOf[key], NumVUCs: len(g), Class: vp.Class,
			})
		}
		sort.Slice(r.vars, func(i, j int) bool {
			if r.vars[i].FuncLow != r.vars[j].FuncLow {
				return r.vars[i].FuncLow < r.vars[j].FuncLow
			}
			return r.vars[i].Slot < r.vars[j].Slot
		})
	})

	// Counts, outside the spans: unknown tokens at embed, and network
	// evaluations run versus those on each variable's voted path.
	for i := range vucs {
		for _, it := range vucs[i].Tokens {
			for _, tok := range it {
				if tok == vuc.TokPad || tok == vuc.TokBlank {
					continue
				}
				r.tokens++
				if !p.Embed.Has(tok) {
					r.unknown++
				}
			}
		}
	}
	for key, g := range groups {
		path := votedPath(voted[key])
		for _, pr := range g {
			if pr.StageProbs == nil { // flat: one network, always used
				r.evals++
				r.useful++
				continue
			}
			r.evals += len(pr.StageProbs)
			for _, s := range path {
				if _, ok := pr.StageProbs[s]; ok {
					r.useful++
				}
			}
		}
	}
	return r, nil
}

// votedPath lists the stages a variable's voted class reads: Stage 1, then
// 2-1 or 2-2, then the leaf stage 3-x when 2-2 chose a family that has one.
func votedPath(vp classify.VarPrediction) []ctypes.Stage {
	path := []ctypes.Stage{ctypes.Stage1}
	if vp.StageLabels[ctypes.Stage1] == 0 {
		return append(path, ctypes.Stage21)
	}
	path = append(path, ctypes.Stage22)
	switch s2 := vp.StageLabels[ctypes.Stage22]; {
	case s2 == 2:
		path = append(path, ctypes.Stage31)
	case s2 == 3:
		path = append(path, ctypes.Stage32)
	case s2 >= 4:
		path = append(path, ctypes.Stage33)
	}
	return path
}

// namedNet is one of a pipeline's networks with its metric name.
type namedNet struct {
	name string
	net  *nn.Network
}

// networks lists a pipeline's networks: the six stages in tree order, or
// the flat one.
func networks(p *classify.Pipeline) []namedNet {
	if p.FlatNet != nil {
		return []namedNet{{"flat", p.FlatNet}}
	}
	var out []namedNet
	for _, s := range ctypes.AllStages() {
		if n := p.Stages[s]; n != nil {
			out = append(out, namedNet{strings.ToLower(s.String()), n})
		}
	}
	return out
}

// flopsPerSample counts one network's multiply-adds ×2 per sample.
func flopsPerSample(n *nn.Network, seqLen int) float64 {
	l := seqLen
	var f float64
	for _, layer := range n.Layers {
		switch t := layer.(type) {
		case *nn.Conv1D:
			f += 2 * float64(l*t.K*t.In*t.Out)
		case *nn.MaxPool1D:
			l /= 2
		case *nn.Dense:
			f += 2 * float64(t.In*t.Out)
		}
	}
	return f
}

// layerTotals accumulates the replay over a set of binaries.
type layerTotals struct {
	bins            int
	dur             [6]time.Duration // Σ per-binary median per part
	whole, partsSum time.Duration    // Σ per-binary fastest whole / replay
	insts, vucs     int
	vars            int
	embedAlloc      float64
	predictAlloc    float64
	tokens, unknown int
	evals, useful   int
	netTime         map[string]time.Duration
	mismatches      int
	firstErr        string
}

// replayReps is how many times each binary is replayed and inferred
// whole, in alternating order. The parts-sum gate compares the fastest
// whole call with the fastest replay (whose parts are summed per replay),
// which is robust to the scheduling noise a shared host adds to single
// calls; the per-layer times are medians.
const replayReps = 5

// replayLayers replays every image of every model replayReps times,
// alternating with whole InferImageCtx calls, then times each network
// alone on the binary's samples with nn.PredictIntoCtx. Any replay or
// whole call whose transcript differs from the reference counts as a
// mismatch.
func replayLayers(ctx context.Context, models []*core.CATI, progs [][]*program, refs [][]*transcript, log *spanLog) (*layerTotals, error) {
	t := &layerTotals{netTime: make(map[string]time.Duration)}
	for mi, m := range models {
		p := m.Pipeline
		seqLen, instDim := p.Cfg.SeqLen(), p.Cfg.InstDim()
		workers := par.Workers(p.Cfg.Workers)
		for pi, prog := range progs[mi] {
			want := refs[mi][pi].Digest
			whole, sum := math.Inf(1), math.Inf(1)
			partDur := make([][]float64, len(parts))
			var last *replay
			for rep := 0; rep < replayReps; rep++ {
				inferWhole := func() error {
					var vars []core.InferredVar
					var err error
					d := log.time(prog.Name, rep, "core.InferImageCtx", func() { vars, err = m.InferImageCtx(ctx, prog.Image) })
					if err != nil {
						return fmt.Errorf("%s: %w", prog.Name, err)
					}
					whole = math.Min(whole, float64(d))
					t.noteMismatch(prog.Name+" (whole)", digestOf(records(vars)) != want)
					return nil
				}
				if rep%2 == 0 {
					if err := inferWhole(); err != nil {
						return nil, err
					}
				}
				r, err := replayBinary(ctx, m, prog.Image, log, prog.Name, rep)
				if err != nil {
					return nil, fmt.Errorf("replay %s: %w", prog.Name, err)
				}
				t.noteMismatch(prog.Name+" (replay)", digestOf(records(r.vars)) != want)
				var s time.Duration
				for k := range parts {
					partDur[k] = append(partDur[k], float64(r.dur[k]))
					s += r.dur[k]
				}
				sum = math.Min(sum, float64(s))
				if rep%2 == 1 {
					if err := inferWhole(); err != nil {
						return nil, err
					}
				}
				last = r
			}
			t.bins++
			t.whole += time.Duration(whole)
			t.partsSum += time.Duration(sum)
			for k := range parts {
				t.dur[k] += time.Duration(median(partDur[k]))
			}
			t.insts += last.insts
			t.vucs += last.vucs
			t.vars += len(last.vars)
			t.embedAlloc += last.embedAlloc
			t.predictAlloc += last.predictAlloc
			t.tokens += last.tokens
			t.unknown += last.unknown
			t.evals += last.evals
			t.useful += last.useful
			if len(last.samples) == 0 {
				continue
			}
			for _, nt := range networks(p) {
				out := make([][]float32, len(last.samples))
				for i := range out {
					out[i] = make([]float32, nt.net.OutputDim())
				}
				d := log.time(prog.Name, 0, "nn."+nt.name, func() {
					_ = nn.PredictIntoCtx(ctx, nt.net, last.samples, seqLen, instDim, workers, out) // shapes come from the pipeline itself
				})
				t.netTime[nt.name] += d
			}
		}
	}
	return t, nil
}

func (t *layerTotals) noteMismatch(what string, bad bool) {
	if !bad {
		return
	}
	t.mismatches++
	if t.firstErr == "" {
		t.firstErr = what + ": transcript differs from the reference"
	}
}

// gap is (whole − Σ parts) / whole over every replayed binary.
func (t *layerTotals) gap() float64 {
	return float64(t.whole-t.partsSum) / float64(t.whole)
}

// addTo reports the replay's per-layer metrics.
func (t *layerTotals) addTo(r *report, models []*core.CATI) {
	bins := float64(t.bins)
	perBin := func(d time.Duration) float64 { return ms(d) / bins }
	r.add("elfx.read.ms_per_bin", perBin(t.dur[0]), "ms")
	r.add("vareco.recover.ms_per_bin", perBin(t.dur[1]), "ms")
	r.add("vareco.recover.insts_per_bin", float64(t.insts)/bins, "count")
	r.add("vuc.extract.ms_per_bin", perBin(t.dur[2]), "ms")
	r.add("vuc.extract.vucs_per_bin", float64(t.vucs)/bins, "count")
	r.add("classify.embed.ms_per_bin", perBin(t.dur[3]), "ms")
	r.add("classify.embed.alloc_mb_per_bin", t.embedAlloc/1e6/bins, "MB")
	r.add("classify.embed.unknown_token_ratio", float64(t.unknown)/float64(max(1, t.tokens)), "ratio")
	r.add("classify.predict.ms_per_bin", perBin(t.dur[4]), "ms")
	r.add("classify.predict.alloc_mb_per_bin", t.predictAlloc/1e6/bins, "MB")
	r.add("classify.predict.net_evals_per_vuc", float64(t.evals)/float64(max(1, t.vucs)), "count")
	r.add("classify.predict.useful_eval_ratio", float64(t.useful)/float64(max(1, t.evals)), "ratio")
	r.add("classify.vote.ms_per_bin", perBin(t.dur[5]), "ms")
	r.add("classify.vote.vars_per_bin", float64(t.vars)/bins, "count")
	kvucs := float64(t.vucs) / 1000
	for name, d := range t.netTime {
		r.add("nn."+name+".ms_per_kvuc", ms(d)/kvucs, "ms")
	}
	// All models of a workload share one architecture; the first one's
	// networks give the per-VUC work.
	p := models[0].Pipeline
	var flops float64
	for _, nt := range networks(p) {
		flops += flopsPerSample(nt.net, p.Cfg.SeqLen())
	}
	r.add("nn.flops_per_vuc", flops, "count")
	r.add("nn.predict.gflops", flops*float64(t.vucs)/t.dur[4].Seconds()/1e9, "GFLOP/s")
}

// gemmShapes times gemm.SGEMM alone at the first network's layer shapes:
// the two convolutions as the fast path runs them (512-row im2col strips
// against the transposed filter bank) and the two dense layers at the
// 256-sample inference chunk.
func gemmShapes(r *report, p *classify.Pipeline) {
	net := networks(p)[0].net
	var convs []*nn.Conv1D
	var denses []*nn.Dense
	for _, layer := range net.Layers {
		switch t := layer.(type) {
		case *nn.Conv1D:
			convs = append(convs, t)
		case *nn.Dense:
			denses = append(denses, t)
		}
	}
	type shape struct {
		name    string
		m, n, k int
		b       []float32
		transB  bool
	}
	var shapes []shape
	for i, c := range convs {
		shapes = append(shapes, shape{fmt.Sprintf("conv%d", i+1), 512, c.Out, c.K * c.In, c.W.W, true})
	}
	for i, d := range denses {
		shapes = append(shapes, shape{fmt.Sprintf("dense%d", i+1), 256, d.Out, d.In, d.W.W, false})
	}
	rng := rand.New(rand.NewSource(1))
	ar := new(gemm.Arena)
	for _, s := range shapes {
		a := make([]float32, s.m*s.k)
		for i := range a {
			a[i] = rng.Float32() - 0.5
		}
		c := make([]float32, s.m*s.n)
		ldb := s.n
		if s.transB {
			ldb = s.k
		}
		call := func() {
			mark := ar.Mark()
			gemm.SGEMM(s.m, s.n, s.k, a, s.k, s.b, ldb, s.transB, c, s.n, ar)
			ar.Release(mark)
		}
		call() // warm the arena and the kernels
		best := math.Inf(1)
		for trial := 0; trial < 5; trial++ {
			calls := 0
			t0 := time.Now()
			for time.Since(t0) < 20*time.Millisecond {
				call()
				calls++
			}
			best = math.Min(best, time.Since(t0).Seconds()/float64(calls))
		}
		r.add("gemm."+s.name+".gflops", 2*float64(s.m*s.n*s.k)/best/1e9, "GFLOP/s")
	}
}
