package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/classify"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ctypes"
	"repro/internal/dwarflite"
	"repro/internal/elfx"
	"repro/internal/isa"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/vareco"
	"repro/internal/vuc"
	"repro/internal/word2vec"
)

// window is the paper's VUC window w; every model here is trained with it.
const window = 10

// Inputs are sized by VUC count: each generated binary is re-drawn (with a
// derived seed) until its VUC count lands within sizeTolerance of the
// target its slot asks for. The inputs still change with the workload seed,
// but their size mix does not, so throughput and tail latency measure the
// system rather than the luck of the draw.
const (
	sizeTolerance = 0.1
	sizeTries     = 48
)

// mix derives an independent seed from a base seed and a path of integers
// (splitmix64 over the parts).
func mix(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x = splitmix(x ^ splitmix(uint64(p)+0x632be59bd9b4e019))
	}
	return int64(splitmix(x) >> 1)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// varKey identifies a variable the way core.InferredVar does.
type varKey struct {
	FuncLow uint64
	Slot    int32
	Global  bool
}

// program is one generated stripped binary with its withheld ground truth.
type program struct {
	Name  string
	Arch  string
	Image []byte
	VUCs  int
	// Truth maps each labelled variable to its declared class, from the
	// compiler's debug info matched on (function entry, frame slot).
	Truth map[varKey]ctypes.Class
}

// genProgram compiles profile prof until the stripped binary's VUC count is
// within sizeTolerance of target (keeping the closest draw otherwise).
func genProgram(name string, prof synth.Profile, arch string, opt int, seed int64, target int) (*program, error) {
	var best *compile.Result
	var bestRec *vareco.Recovery
	var bestStripped *elfx.Binary
	bestN := -1
	for try := 0; try < sizeTries; try++ {
		s := mix(seed, int64(try))
		res, err := compile.Compile(synth.Generate(prof, s), compile.Options{
			Dialect: compile.GCC, Opt: opt, Seed: s, Arch: arch,
		})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		stripped := elfx.Strip(res.Binary)
		rec, err := vareco.RecoverOpts(stripped, vareco.Options{Dataflow: true})
		if err != nil {
			return nil, fmt.Errorf("recover %s: %w", name, err)
		}
		n := len(vuc.Extract(rec, vuc.Config{Window: window}))
		if bestN < 0 || math.Abs(float64(n-target)) < math.Abs(float64(bestN-target)) {
			best, bestRec, bestStripped, bestN = res, rec, stripped, n
		}
		if math.Abs(float64(n-target)) <= sizeTolerance*float64(target) {
			break
		}
	}
	img, err := elfx.Write(bestStripped)
	if err != nil {
		return nil, fmt.Errorf("write %s: %w", name, err)
	}
	return &program{Name: name, Arch: arch, Image: img, VUCs: bestN, Truth: groundTruth(best.Debug, bestRec)}, nil
}

// groundTruth labels recovered variables against the debug info, as the
// training corpus does: stack slots by (function entry, slot) when the
// frame convention agrees, globals by address.
func groundTruth(dbg *dwarflite.Info, rec *vareco.Recovery) map[varKey]ctypes.Class {
	truth := make(map[varKey]ctypes.Class)
	byLow := make(map[uint64]*dwarflite.Func, len(dbg.Funcs))
	for i := range dbg.Funcs {
		byLow[dbg.Funcs[i].Low] = &dbg.Funcs[i]
	}
	for _, f := range rec.Funcs {
		df, ok := byLow[f.Low]
		if !ok || (df.FrameReg == dwarflite.FrameRSP) != (f.Frame == isa.FrameSP) {
			continue
		}
		for _, v := range f.Vars {
			dv, ok := df.VarAt(v.Slot)
			if !ok {
				continue
			}
			if cl, err := ctypes.ClassOf(dv.Type); err == nil {
				truth[varKey{FuncLow: f.Low, Slot: v.Slot}] = cl
			}
		}
	}
	for _, g := range rec.Globals {
		if dg, ok := dbg.GlobalAt(g.Addr); ok {
			if cl, err := ctypes.ClassOf(dg.Type); err == nil {
				truth[varKey{FuncLow: g.Addr, Global: true}] = cl
			}
		}
	}
	return truth
}

// arches are the two instruction sets of the corpus.
var arches = []string{"x86_64", "rv64"}

// corpusTarget is the VUC count asked of the a-th TestApps profile: a fixed
// spread from 450 to 846 VUCs, so the corpus mixes small and large binaries
// in the same proportion for every seed.
func corpusTarget(a int) int { return 450 + 36*a }

// timedApps are the programs of each arch that corpus-tree times: every
// third TestApps profile, so the sizes still span the target range and a%4
// covers O0–O3 once. A small timed set gives each binary many repeats in a
// run, and its fastest repeat is what the run reports; var_accuracy is
// taken over the whole corpus, so it does not hang on four draws per arch.
var timedApps = []int{0, 3, 6, 9}

// corpusPrograms generates the corpus-tree inputs: the twelve synth.TestApps
// profiles for each architecture, at O0–O3 in rotation. Result [i] holds
// the programs of arches[i].
func corpusPrograms(seed int64) ([][]*program, error) {
	apps := synth.TestApps()
	out := make([][]*program, len(arches))
	for ai, arch := range arches {
		for a, app := range apps {
			opt := a % 4
			p, err := genProgram(fmt.Sprintf("%s-%s-O%d", app.Name, arch, opt),
				app.Profile, arch, opt, mix(seed, 1, int64(ai), int64(a)), corpusTarget(a))
			if err != nil {
				return nil, err
			}
			out[ai] = append(out[ai], p)
		}
	}
	return out, nil
}

// serveTarget is the VUC count asked of the i-th serve base program: a
// fixed spread from 150 to 370 VUCs, smaller than the corpus binaries so
// the service answers enough requests per second for a steady p99.
func serveTarget(i int) int { return 150 + 20*(i%12) }

// servePrograms generates n x86-64 base programs for a serve workload from
// the TestApps profiles in rotation; stream separates the workloads' draws.
func servePrograms(seed, stream int64, n int) ([]*program, error) {
	apps := synth.TestApps()
	out := make([]*program, n)
	for i := range out {
		a := i % len(apps)
		opt := i % 4
		// Fewer functions per program than the profile's default, so most
		// draws already land near the smaller target.
		prof := apps[a].Profile
		prof.FuncsMin, prof.FuncsMax = 2, 6
		p, err := genProgram(fmt.Sprintf("%s-x86_64-O%d-%d", apps[a].Name, opt, i),
			prof, "x86_64", opt, mix(seed, stream, int64(i)), serveTarget(i))
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// withNonce returns img followed by a 16-byte trailer (seed, n). ELF
// readers ignore bytes past the section headers, so the pipeline sees the
// same program, but the image — and so its SHA-256 and the server's cache
// key — is new for every n.
func withNonce(img []byte, seed int64, n uint64) []byte {
	out := make([]byte, len(img), len(img)+16)
	copy(out, img)
	out = binary.LittleEndian.AppendUint64(out, uint64(seed))
	return binary.LittleEndian.AppendUint64(out, n)
}

// model is a trained model as the benchmark uses it: saved to an artifact
// file and loaded back, so every path runs the same sealed weights.
type model struct {
	Info modelInfo
	Path string
	CATI *core.CATI
}

// treeConfig is the paper-dimension six-stage tree (conv 32/64, dense
// 1024, w=10). Training is small — few samples, one epoch — because the
// benchmark times inference, not accuracy; the fixed seed and fixed worker
// count make the weights the same on every host.
func treeConfig(arch string) classify.Config {
	return classify.Config{
		Window: window, Arch: arch, MaxPerStage: 400,
		Train:   nn.TrainConfig{Epochs: 1, Batch: 64, LR: 1e-3},
		W2V:     word2vec.Config{Epochs: 1, Deterministic: true},
		Seed:    7,
		Workers: 2,
	}
}

// flatConfig is the small flat 19-way model serve-cold serves.
func flatConfig() classify.Config {
	return classify.Config{
		Window: window, Conv1: 8, Conv2: 8, Hidden: 32, MaxPerStage: 500, Flat: true,
		Train:   nn.TrainConfig{Epochs: 1, Batch: 32, LR: 2e-3},
		W2V:     word2vec.Config{Epochs: 1, Deterministic: true},
		Seed:    7,
		Workers: 2,
	}
}

// trainModel builds a fixed training corpus, trains cfg on it, and saves
// and reloads the artifact at dir/name.model. The training inputs do not
// depend on the workload seed.
func trainModel(ctx context.Context, dir, name string, cfg classify.Config, binaries int) (*model, error) {
	c, err := corpus.BuildCtx(ctx, corpus.BuildConfig{
		Name: "train-" + name, Binaries: binaries, Profile: synth.DefaultProfile("train"),
		Window: window, Seed: 7, Arch: cfg.Arch,
	})
	if err != nil {
		return nil, fmt.Errorf("train %s: %w", name, err)
	}
	m, err := core.TrainCtx(ctx, c, cfg)
	if err != nil {
		return nil, fmt.Errorf("train %s: %w", name, err)
	}
	// Training used a fixed worker count; inference resolves its own.
	m.Pipeline.Cfg.Workers = 0
	blob, err := m.Save()
	if err != nil {
		return nil, fmt.Errorf("save %s: %w", name, err)
	}
	path := filepath.Join(dir, name+".model")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	loaded, err := core.Load(data)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", name, err)
	}
	return &model{
		Path: path, CATI: loaded,
		Info: modelInfo{Name: name, Arch: loaded.Arch(), Fingerprint: loaded.Fingerprint(), Weights: weightsHash(loaded)},
	}, nil
}

// weightsHash hashes a pipeline's resolved shape, vocabulary, embedding
// vectors and every network parameter in stage order.
func weightsHash(c *core.CATI) string {
	h := sha256.New()
	p := c.Pipeline
	cfg := p.Cfg.WithDefaults()
	fmt.Fprintf(h, "%d %d %d %d %d %t %s\n", cfg.EmbedDim, cfg.Window, cfg.Conv1, cfg.Conv2, cfg.Hidden, cfg.Flat, cfg.Arch)
	var buf [4]byte
	putVec := func(v []float32) {
		for _, x := range v {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			h.Write(buf[:])
		}
	}
	for i, w := range p.Embed.Words {
		fmt.Fprintf(h, "%s\n", w)
		putVec(p.Embed.Vecs[i])
	}
	nets := []*nn.Network{p.FlatNet}
	for _, s := range ctypes.AllStages() {
		nets = append(nets, p.Stages[s])
	}
	for _, n := range nets {
		if n == nil {
			h.Write([]byte("-\n"))
			continue
		}
		for _, prm := range n.Params() {
			putVec(prm.W)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// transcript is one image's reference answer: the (func, slot, size,
// class, nVUCs) record of every variable, as direct InferImageCtx gives it.
type transcript struct {
	Digest string
	// Suffix is the tail of a /v1/infer response carrying exactly these
	// records, for a byte comparison before falling back to decoding.
	Suffix []byte
	// Labelled and Correct count the variables with ground truth and those
	// typed correctly.
	Labelled, Correct int
}

// records renders vars in the /v1/infer per-variable schema.
func records(vars []core.InferredVar) []serve.VarRecord {
	recs := make([]serve.VarRecord, len(vars))
	for i, v := range vars {
		recs[i] = serve.VarRecord{
			FuncLow: v.FuncLow, Slot: v.Slot, Global: v.Global,
			Size: v.Size, NumVUCs: v.NumVUCs, Class: v.Class.String(),
		}
	}
	return recs
}

// digestOf hashes a record list.
func digestOf(recs []serve.VarRecord) string {
	b, _ := json.Marshal(recs) // a []VarRecord always marshals
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// newTranscript builds the reference for one program's inferred vars.
func newTranscript(vars []core.InferredVar, truth map[varKey]ctypes.Class) *transcript {
	recs := records(vars)
	b, _ := json.Marshal(recs) // a []VarRecord always marshals
	t := &transcript{Digest: digestOf(recs)}
	t.Suffix = append(append([]byte(`"vars":`), b...), "}\n"...)
	for _, v := range vars {
		if want, ok := truth[varKey{FuncLow: v.FuncLow, Slot: v.Slot, Global: v.Global}]; ok {
			t.Labelled++
			if v.Class == want {
				t.Correct++
			}
		}
	}
	return t
}

// reference infers every program directly, one at a time, outside any
// timed window.
func reference(ctx context.Context, m *core.CATI, progs []*program) ([]*transcript, error) {
	out := make([]*transcript, len(progs))
	for i, p := range progs {
		vars, err := m.InferImageCtx(ctx, p.Image)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", p.Name, err)
		}
		out[i] = newTranscript(vars, p.Truth)
	}
	return out, nil
}

// matchesResponse reports whether a /v1/infer body carries exactly the
// reference records: a byte comparison of the vars tail first, then a
// decode for any other rendering of the same records.
func (t *transcript) matchesResponse(body []byte) bool {
	if bytes.HasSuffix(body, t.Suffix) {
		return true
	}
	var resp serve.InferResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Vars == nil {
		return false
	}
	return digestOf(resp.Vars) == t.Digest
}

// accuracy is the share of labelled variables typed correctly.
func accuracy(ts []*transcript, weights []int) float64 {
	var labelled, correct float64
	for i, t := range ts {
		w := 1.0
		if weights != nil {
			w = float64(weights[i])
		}
		labelled += w * float64(t.Labelled)
		correct += w * float64(t.Correct)
	}
	if labelled == 0 {
		return 0
	}
	return correct / labelled
}

// writeImages stores programs as files under dir and returns the paths.
func writeImages(dir string, progs []*program) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, len(progs))
	for i, p := range progs {
		paths[i] = filepath.Join(dir, p.Name+".elf")
		if err := os.WriteFile(paths[i], p.Image, 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}
