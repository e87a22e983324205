// Package core is CATI's public API: train a model from a corpus of
// binaries, save/load it, and run the full inference pipeline on a
// stripped binary — disassemble, locate variables, extract and generalize
// VUCs, embed, classify with the six-stage CNN tree, and vote per variable
// (paper §III system workflow).
//
// Every long-running entry point comes in two forms: a context-taking one
// (TrainCtx, InferBinaryCtx, InferImageCtx, InferBatch) that honors
// cancellation and deadlines at stage/shard boundaries, and a thin
// context.Background() wrapper keeping the historical signature. Inference
// runs as an explicit staged pipeline (recover → extract → embed →
// predict → vote); attach an obs.Trace/obs.Hook via the pipeline config to
// observe per-stage wall time, item counts and worker counts.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/artifact"
	"repro/internal/classify"
	"repro/internal/corpus"
	"repro/internal/ctypes"
	"repro/internal/elfx"
	"repro/internal/isa"
	_ "repro/internal/isa/isas" // register built-in architectures
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/vareco"
	"repro/internal/vuc"
)

// Inference and artifact telemetry. Binary outcome counters follow the
// BinaryResult contract: one inferred/failed increment per binary (after
// retries settle), plus one retry increment per extra attempt and a
// timeout increment when the per-binary deadline was the failure.
var (
	mVUCs = telemetry.Default().Counter("cati_vucs_extracted_total",
		"VUCs extracted across all inferred binaries.")
	mBinInferred = telemetry.Default().Counter("cati_binaries_inferred_total",
		"Binaries whose inference completed successfully.")
	mBinFailed = telemetry.Default().Counter("cati_binaries_failed_total",
		"Binaries whose inference failed after all attempts.")
	mBinRetries = telemetry.Default().Counter("cati_binary_retries_total",
		"Extra inference attempts made after transient per-binary failures.")
	mBinTimeouts = telemetry.Default().Counter("cati_binaries_timeout_total",
		"Binaries that failed because the per-binary timeout fired.")
)

// countOutcome records one binary's final inference outcome.
func countOutcome(err error) {
	if err == nil {
		mBinInferred.Inc()
		return
	}
	mBinFailed.Inc()
	if errors.Is(err, context.DeadlineExceeded) {
		mBinTimeouts.Inc()
	}
}

// countArtifact records a model save/load outcome under one labeled
// counter family.
func countArtifact(op string, err error) {
	if !telemetry.On() {
		return
	}
	result := "ok"
	if err != nil {
		result = "error"
	}
	telemetry.Default().Counter("cati_artifact_ops_total",
		"Model artifact operations by kind and outcome.", "op", op, "result", result).Inc()
}

// CATI is a trained type-inference system.
//
// Concurrency: a trained CATI is safe for concurrent use. InferBinary,
// InferBinaryCtx, InferImage, InferImageCtx, InferBatch and InferBatchOpts
// may be called from any number of goroutines on one instance — inference
// only reads the pipeline's weights and resolved config, and the input
// *elfx.Binary is never written, so even sharing one binary across
// concurrent calls is fine. What is NOT synchronized is mutation of the
// exported fields (Pipeline, Clamp, Pipeline.Cfg.*): configure the
// instance first, then publish it; to swap models under live traffic,
// swap the whole *CATI pointer atomically (as internal/serve's model
// registry does) rather than mutating a shared instance in place.
type CATI struct {
	Pipeline *classify.Pipeline
	// Clamp is the voting confidence threshold (paper: 0.9).
	Clamp float64
	// fingerprint identifies the sealed artifact this system was loaded
	// from (or last saved as); see Fingerprint.
	fingerprint string
}

// ErrNotTrained reports use of an empty system.
var ErrNotTrained = errors.New("core: system has no trained pipeline")

// ErrArchMismatch reports a binary whose machine architecture differs from
// the one the loaded model was trained on. The embedding vocabulary and
// CNN weights are ISA-specific, so cross-ISA inference would silently
// produce garbage; it is a typed per-binary error instead.
var ErrArchMismatch = errors.New("core: binary architecture does not match model")

// Arch names the instruction set the model was trained on ("x86_64",
// "rv64"). Models saved before the tag existed report x86_64.
func (c *CATI) Arch() string {
	if c.Pipeline == nil {
		return ""
	}
	return c.Pipeline.Cfg.WithDefaults().Arch
}

// checkArch rejects model/binary ISA mismatches and unknown machines up
// front, before recovery decodes the text section with the wrong decoder.
func (c *CATI) checkArch(bin *elfx.Binary) error {
	arch, err := isa.ByMachine(bin.Machine)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if want := c.Arch(); arch.Name() != want {
		return fmt.Errorf("%w: model is %s, binary is %s", ErrArchMismatch, want, arch.Name())
	}
	return nil
}

// Train builds a CATI system from a labeled corpus.
func Train(c *corpus.Corpus, cfg classify.Config) (*CATI, error) {
	return TrainCtx(context.Background(), c, cfg)
}

// TrainCtx is Train with cooperative cancellation: training checks ctx at
// sentence/minibatch/stage boundaries and returns ctx.Err() promptly once
// it is cancelled. Per-phase timings report through cfg.Trace/cfg.Hook.
func TrainCtx(ctx context.Context, c *corpus.Corpus, cfg classify.Config) (*CATI, error) {
	p, err := classify.TrainCtx(ctx, c, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &CATI{Pipeline: p, Clamp: classify.DefaultClamp}, nil
}

// Model artifact framing: Save seals the serialized pipeline in an
// artifact envelope (magic, kind, version, length, CRC-32C), and Load
// refuses anything that is not byte-identical to what a compatible build
// wrote — truncation, bit flips, version skew, and non-finite weights all
// map to typed errors instead of gob panics or silent corruption.
const (
	// modelKind tags float32 model files in the artifact envelope.
	modelKind = "model"
	// modelQ8Kind tags int8-quantized model files. A distinct kind (not
	// just a version bump) means builds that predate quantization reject
	// such files with artifact.ErrKind at the envelope instead of failing
	// deep inside gob decoding.
	modelQ8Kind = "modelq8"
	// ModelVersion is the float model schema version this build reads and
	// writes. Bump it whenever the serialized pipeline layout changes
	// incompatibly; Load rejects other versions with artifact.ErrVersion.
	ModelVersion = 1
	// ModelQ8Version is the quantized model schema version.
	ModelQ8Version = 1
)

// Fingerprint identifies the exact model contents: a truncated SHA-256 of
// the sealed artifact (config + embedding + all stage weights), set by
// Load and by Save. It is "" for an in-memory model that was never
// sealed. Two processes that loaded the same artifact file report the
// same fingerprint, so clients can correlate inference responses with
// model versions across reloads (it complements the coarser config
// fingerprint the training checkpoints use for staleness).
func (c *CATI) Fingerprint() string { return c.fingerprint }

// fingerprintBlob hashes a sealed artifact into the short hex form
// Fingerprint reports.
func fingerprintBlob(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

// Save serializes the system as a versioned, checksummed artifact and
// stamps the receiver's Fingerprint with the sealed bytes' hash. Float
// pipelines seal under the "model" kind, quantized ones under "modelq8",
// so the two artifact families are distinguishable before decoding.
func (c *CATI) Save() (blob []byte, err error) {
	defer func() { countArtifact("save", err) }()
	if c.Pipeline == nil {
		return nil, ErrNotTrained
	}
	payload, err := c.Pipeline.Encode()
	if err != nil {
		return nil, err
	}
	if c.Pipeline.Quantized() {
		blob = artifact.Seal(modelQ8Kind, ModelQ8Version, payload)
	} else {
		blob = artifact.Seal(modelKind, ModelVersion, payload)
	}
	c.fingerprint = fingerprintBlob(blob)
	return blob, nil
}

// Quantize returns a new system whose stage CNNs run int8 inference (the
// embedding matrix and config are shared). The original is unchanged and
// stays trainable; the quantized system is inference-only. Its
// fingerprint is unset until the first Save.
func (c *CATI) Quantize() (*CATI, error) {
	if c.Pipeline == nil {
		return nil, ErrNotTrained
	}
	qp, err := c.Pipeline.Quantize()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &CATI{Pipeline: qp, Clamp: c.Clamp}, nil
}

// Load rebuilds a saved system — float ("model") or quantized
// ("modelq8"), dispatched on the envelope's kind tag — validating the
// envelope (magic, kind, version, length, checksum) and the decoded
// weights (all finite) before accepting it. Failure modes are
// distinguishable with errors.Is against the artifact package's typed
// errors and nn.ErrNotFinite; a well-formed artifact of a kind this build
// does not handle maps to artifact.ErrUnknownKind.
func Load(data []byte) (c *CATI, err error) {
	defer func() { countArtifact("load", err) }()
	var payload []byte
	switch kind, ok := artifact.Kind(data); {
	case ok && kind == modelQ8Kind:
		payload, err = artifact.Open(modelQ8Kind, ModelQ8Version, data)
	case ok && kind != modelKind:
		return nil, fmt.Errorf("core: load: %w %q (this build reads %q and %q)",
			artifact.ErrUnknownKind, kind, modelKind, modelQ8Kind)
	default:
		// The float kind — or not an artifact at all, in which case Open
		// reports the precise envelope failure (magic, truncation, ...).
		payload, err = artifact.Open(modelKind, ModelVersion, data)
	}
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	p, err := classify.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := p.CheckFinite(); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	return &CATI{Pipeline: p, Clamp: classify.DefaultClamp, fingerprint: fingerprintBlob(data)}, nil
}

// InferredVar is one variable located and typed in a stripped binary.
type InferredVar struct {
	// FuncLow is the recovered owning function's entry address for stack
	// variables, or the absolute address for globals.
	FuncLow uint64
	// Slot is the frame-relative offset of the variable's stack slot
	// (zero for globals).
	Slot int32
	// Global marks data-section variables.
	Global bool
	// Size is the recovered slot size in bytes.
	Size int
	// NumVUCs is how many usage contexts voted.
	NumVUCs int
	// Class is the inferred type class.
	Class ctypes.Class
}

// InferBinary runs the full pipeline on a (typically stripped) binary and
// returns one typed record per recovered variable, ordered by function and
// slot.
func (c *CATI) InferBinary(bin *elfx.Binary) ([]InferredVar, error) {
	return c.InferBinaryCtx(context.Background(), bin)
}

// InferBinaryCtx is InferBinary with cooperative cancellation: every
// pipeline stage (recover, extract, embed, predict, vote) refuses to
// start once ctx is cancelled, and the embed/predict stages additionally
// bail at shard/chunk boundaries mid-stage, returning ctx.Err().
func (c *CATI) InferBinaryCtx(ctx context.Context, bin *elfx.Binary) ([]InferredVar, error) {
	if c.Pipeline == nil {
		return nil, ErrNotTrained
	}
	vars, err := c.infer(ctx, bin, c.runner())
	countOutcome(err)
	return vars, err
}

// InferImage is InferBinary for a raw ELF image.
func (c *CATI) InferImage(image []byte) ([]InferredVar, error) {
	return c.InferImageCtx(context.Background(), image)
}

// InferImageCtx is InferImage with cooperative cancellation.
func (c *CATI) InferImageCtx(ctx context.Context, image []byte) ([]InferredVar, error) {
	bin, err := elfx.Read(image)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return c.InferBinaryCtx(ctx, bin)
}

// BinaryResult is one binary's outcome in an InferBatch: either the
// inferred variables or the error that stopped that binary — never both.
// Errors are contained per binary, so one malformed input cannot poison
// its batchmates.
type BinaryResult struct {
	// Vars are the inferred variables; nil when Err is set.
	Vars []InferredVar
	// Err is the binary's failure: a parse/analysis error, a contained
	// worker panic (*par.PanicError), or context.DeadlineExceeded when the
	// per-binary timeout fired. nil on success.
	Err error
	// Attempts is how many times the binary ran (> 1 after retries).
	Attempts int
}

// BatchOptions tunes per-binary fault isolation in InferBatchOpts.
type BatchOptions struct {
	// Timeout bounds each binary's wall time (0: none). A binary that
	// exceeds it fails with context.DeadlineExceeded in its result record;
	// the rest of the batch is unaffected.
	Timeout time.Duration
	// Retries is how many extra attempts a binary gets after a transient
	// failure (a contained panic or a per-binary timeout). Deterministic
	// failures — malformed ELF, undecodable text, no .text section — are
	// never retried: the same bytes produce the same error.
	Retries int
	// Backoff spaces retry attempts apart instead of re-attempting
	// immediately: retry n waits Backoff×2^(n-1), jittered ±50% so
	// batchmates that failed together do not retry in lockstep. 0 takes
	// the 25ms default; negative disables backoff (immediate retries, the
	// pre-backoff behavior). The wait is cancellable: a cancelled parent
	// ctx ends it at once.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (0: 1s).
	MaxBackoff time.Duration
	// BinContext, when set, supplies the context binary i runs under
	// instead of the batch context, so each binary of one batch can carry
	// its own trace span. Its one caller is perfbench's traced
	// corpus-tree pass, which times every binary's stages separately.
	// Cancelling the batch ctx must still stop the work, so
	// implementations derive from (or monitor) the batch ctx.
	BinContext func(i int) context.Context
}

// backoffDelay is the jittered wait before retry attempt n (n ≥ 1): the
// exponential base×2^(n-1), capped at MaxBackoff, scaled by a uniform
// factor in [0.5, 1.5).
func (o BatchOptions) backoffDelay(n int) time.Duration {
	base := o.Backoff
	if base < 0 {
		return 0
	}
	if base == 0 {
		base = 25 * time.Millisecond
	}
	max := o.MaxBackoff
	if max <= 0 {
		max = time.Second
	}
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter into [0.5d, 1.5d): decorrelates retry storms across a batch.
	return d/2 + rand.N(d)
}

// retryable reports whether a per-binary failure is worth another
// attempt: contained panics and per-binary timeouts may be load-induced;
// parse and analysis errors are deterministic.
func retryable(err error) bool {
	var pe *par.PanicError
	return errors.As(err, &pe) || errors.Is(err, context.DeadlineExceeded)
}

// InferBatch fans inference out over many binaries on the shared worker
// pool: up to Workers binaries run concurrently (each one's stages then
// share the same pool for their intra-binary parallelism) and results
// land at the index of their input. Each binary gets its own error
// domain: a parse failure, analysis error, or even a panic inside one
// binary's stages becomes that binary's Err record while the rest of the
// batch completes normally. The returned error is non-nil only when the
// whole batch could not run (ErrNotTrained) or the parent ctx was
// cancelled — per-binary failures never abort the batch. With a Trace
// attached, every binary's stages land in the one trace (concurrently,
// so their wall times overlap).
func (c *CATI) InferBatch(ctx context.Context, bins []*elfx.Binary) ([]BinaryResult, error) {
	return c.InferBatchOpts(ctx, bins, BatchOptions{})
}

// InferBatchOpts is InferBatch with explicit per-binary timeout and
// bounded-retry policy.
func (c *CATI) InferBatchOpts(ctx context.Context, bins []*elfx.Binary, opts BatchOptions) ([]BinaryResult, error) {
	if c.Pipeline == nil {
		return nil, ErrNotTrained
	}
	if len(bins) == 0 {
		return nil, nil
	}
	run := c.runner()
	out := make([]BinaryResult, len(bins))
	jobs := make([]func(), len(bins))
	for i, bin := range bins {
		jobs[i] = func() {
			bctx := ctx
			if opts.BinContext != nil {
				if c := opts.BinContext(i); c != nil {
					bctx = c
				}
			}
			out[i] = c.inferIsolated(bctx, bin, run, opts)
		}
	}
	// RunCtx contains panics already, but inferIsolated contains them per
	// binary first, so one binary's panic cannot surface as the pool-level
	// error and mask its batchmates' results.
	if err := par.RunCtx(ctx, par.Workers(c.Pipeline.Cfg.Workers), jobs...); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: batch: %w", err)
	}
	// Binaries skipped by a cancelled pool have no attempts; report the
	// cancellation rather than a half-filled slice.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// inferIsolated runs one binary inside its own error domain: panics are
// contained to this binary, an optional per-binary deadline applies, and
// transient failures are retried up to opts.Retries times.
func (c *CATI) inferIsolated(ctx context.Context, bin *elfx.Binary, run obs.Runner, opts BatchOptions) BinaryResult {
	res := BinaryResult{}
	for {
		res.Attempts++
		if res.Attempts > 1 {
			mBinRetries.Inc()
		}
		bctx := ctx
		cancel := context.CancelFunc(func() {})
		if opts.Timeout > 0 {
			bctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		}
		err := par.SafeErr(func() error {
			vars, err := c.infer(bctx, bin, run)
			if err == nil {
				res.Vars = vars
			}
			return err
		})
		cancel()
		if err == nil {
			res.Err = nil
			countOutcome(nil)
			return res
		}
		res.Err = err
		// Parent cancellation is not a per-binary failure mode: surface it
		// as-is (uncounted) and let the batch-level ctx check report it.
		if ctx.Err() != nil {
			return res
		}
		if res.Attempts > opts.Retries || !retryable(err) {
			countOutcome(err)
			return res
		}
		// Transient failure with retry budget left: back off before the
		// next attempt so a load-induced failure (timeout, resource-
		// pressure panic) is not immediately re-offered to the same
		// overloaded machine. Cancellation cuts the wait short.
		if delay := opts.backoffDelay(res.Attempts); delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				// Parent cancelled mid-backoff: surface the last failure
				// uncounted, as in the in-attempt cancellation path above.
				return res
			}
		}
	}
}

// runner builds the stage runner from the pipeline config's observability
// plumbing; with neither Trace nor Hook set it is free.
func (c *CATI) runner() obs.Runner {
	return obs.Runner{Trace: c.Pipeline.Cfg.Trace, Hook: c.Pipeline.Cfg.Hook}
}

// infer executes the paper's §III workflow as an explicit staged
// pipeline. Each stage runs under the obs.Runner, which checks ctx,
// records wall time/items/workers, and fires hooks.
func (c *CATI) infer(ctx context.Context, bin *elfx.Binary, run obs.Runner) ([]InferredVar, error) {
	if err := c.checkArch(bin); err != nil {
		return nil, err
	}
	workers := par.Workers(c.Pipeline.Cfg.Workers)

	// Stage 1: recover — disassemble and locate variables.
	var rec *vareco.Recovery
	err := run.Stage(ctx, "recover", 1, func(_ context.Context) (int, error) {
		var err error
		rec, err = vareco.RecoverOpts(bin, vareco.Options{Dataflow: true})
		if rec == nil {
			return 0, err
		}
		return len(rec.Funcs), err
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Stage 2: extract — generalize tokens and window VUCs. The window
	// must resolve exactly as training resolved it, so it goes through
	// Config.WithDefaults rather than re-implementing the default here.
	var vucs []vuc.VUC
	err = run.Stage(ctx, "extract", 1, func(_ context.Context) (int, error) {
		w := c.Pipeline.Cfg.WithDefaults().Window
		vucs = vuc.Extract(rec, vuc.Config{Window: w})
		return len(vucs), nil
	})
	if err != nil {
		return nil, err
	}
	mVUCs.Add(uint64(len(vucs)))
	if len(vucs) == 0 {
		return nil, nil
	}

	// Stage 3: embed — Word2Vec lookup per token window.
	samples := make([][]float32, len(vucs))
	err = run.Stage(ctx, "embed", workers, func(sctx context.Context) (int, error) {
		return len(vucs), par.ForEachCtx(sctx, len(vucs), workers, func(i int) {
			samples[i] = c.Pipeline.EmbedWindow(vucs[i].Tokens)
		})
	})
	if err != nil {
		return nil, err
	}

	// Stage 4: predict — the six-stage CNN tree per VUC.
	var preds []classify.VUCPrediction
	err = run.Stage(ctx, "predict", workers, func(sctx context.Context) (int, error) {
		var err error
		preds, err = c.Pipeline.PredictVUCsCtx(sctx, samples)
		return len(samples), err
	})
	if err != nil {
		return nil, fmt.Errorf("core: predict: %w", err)
	}

	// Stage 5: vote — group predictions per variable and vote.
	var out []InferredVar
	err = run.Stage(ctx, "vote", 1, func(_ context.Context) (int, error) {
		groups := make(map[vuc.VarKey][]classify.VUCPrediction)
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

		out = make([]InferredVar, 0, len(groups))
		for key, g := range groups {
			vp := classify.VoteVariable(g, c.Clamp)
			out = append(out, InferredVar{
				FuncLow: key.FuncLow,
				Slot:    key.Slot,
				Global:  key.Global,
				Size:    sizeOf[key],
				NumVUCs: len(g),
				Class:   vp.Class,
			})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].FuncLow != out[j].FuncLow {
				return out[i].FuncLow < out[j].FuncLow
			}
			return out[i].Slot < out[j].Slot
		})
		return len(out), nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
