// Package serve is CATI's long-lived inference service: an HTTP daemon
// that loads a trained model artifact once and turns the one-shot `cati
// infer` pipeline into a shared, always-warm backend for decompiler
// integrations and bulk analysis.
//
//	POST /v1/infer        raw ELF bytes in → per-variable JSON types out
//	GET  /v1/models       active model fingerprint, path, load time, health
//	GET  /v1/healthz      liveness ("ok"; never blocked by inference load)
//	GET  /v1/readyz       readiness (model loaded + admission queue below
//	                      watermark); load balancers route on this, not on
//	                      liveness
//	GET  /v1/cache/{sha}  peer cache fill: the cached result for an image
//	                      SHA-256 under the active model, or 404 — lets a
//	                      fleet router serve another shard's warm cache
//	                      without recomputing
//
// Three mechanisms make it production-shaped:
//
//   - a model registry (registry.go) holding the active *core.CATI behind
//     an atomic pointer, hot-reloaded on SIGHUP or artifact-file change:
//     in-flight requests finish on the old snapshot, new requests see the
//     new one, and every response carries the model fingerprint;
//   - admission control (admission.go): a bounded in-flight limit and a
//     bounded, deadline-capped wait queue; everything beyond is answered
//     429 + Retry-After immediately instead of degrading every request;
//   - a content-addressed LRU result cache (cache.go) keyed by (SHA-256
//     of image, model fingerprint), so re-submitted binaries — the common
//     case in real workloads — skip inference entirely.
//
// CATI types each binary on its own, so an admitted request runs its own
// one-binary core.InferBatchOpts call on its handler goroutine, under the
// request's context: a client that leaves stops its inference at the
// next stage boundary. /v1/infer and bulk jobs share that call
// (inferActive) with its per-binary timeout/retry policy and its panic
// containment.
//
// Shutdown is a graceful drain: stop accepting, finish in-flight
// requests (bounded by the drain deadline), then stop the watcher and the
// bulk queue. Everything is instrumented through internal/telemetry.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/bulkq"
	"repro/internal/core"
	"repro/internal/elfx"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Request telemetry.
var (
	mReqSeconds = telemetry.Default().Histogram("cati_serve_request_seconds",
		"End-to-end /v1/infer latency, admission wait included.",
		telemetry.StageBuckets)
)

// countRequest records one finished /v1/infer request by status code.
func countRequest(code int) {
	if !telemetry.On() {
		return
	}
	telemetry.Default().Counter("cati_serve_requests_total",
		"Inference requests served, by HTTP status code.",
		"code", strconv.Itoa(code)).Inc()
}

// countRejection records one shed request by which bound fired.
func countRejection(reason string) {
	if !telemetry.On() {
		return
	}
	telemetry.Default().Counter("cati_serve_rejected_total",
		"Inference requests shed by admission control, by reason.",
		"reason", reason).Inc()
}

// Config tunes the service; zero values take the documented defaults.
type Config struct {
	// ModelPath is the trained artifact to load and watch. Required.
	ModelPath string
	// Workers is the per-model inference worker count (0: CATI_WORKERS
	// env, else GOMAXPROCS), exactly like `cati infer -workers`.
	Workers int
	// MaxInFlight bounds concurrently executing requests (default 16).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot beyond
	// MaxInFlight (default: MaxInFlight). Arrivals beyond in-flight +
	// queue are rejected with 429 immediately.
	MaxQueue int
	// QueueWait caps a queued request's wait for a slot (default 1s);
	// expiry answers 429.
	QueueWait time.Duration
	// RetryAfter is the minimum Retry-After hint on 429 responses
	// (default 1s). The emitted hint is derived from live load — current
	// queue depth × a recent per-request latency average, spread over the
	// in-flight lanes — clamped to [RetryAfter, MaxRetryAfter], so shed
	// clients back off in proportion to how far behind the server is
	// instead of hammering a fixed cadence.
	RetryAfter time.Duration
	// MaxRetryAfter caps the derived Retry-After hint (default 30s).
	MaxRetryAfter time.Duration
	// ReadyWatermark is the /v1/readyz gate: the service reports
	// not-ready once the admission wait queue holds this many requests
	// (default MaxQueue — not ready exactly when new arrivals start being
	// shed; minimum 1).
	ReadyWatermark int
	// CacheSize is the result cache's entry cap (default 1024; negative
	// disables caching).
	CacheSize int
	// BinaryTimeout/Retries are the per-binary fault-isolation knobs
	// passed to core.InferBatchOpts (see core.BatchOptions).
	BinaryTimeout time.Duration
	Retries       int
	// MaxBody caps an uploaded image's size in bytes (default 64 MiB).
	MaxBody int64
	// BulkDir, when set, enables the durable bulk-analysis queue
	// (internal/bulkq) and mounts the /v1/bulk API: the directory holds
	// the content-addressed spool and the WAL journal, and a restart
	// against the same directory resumes unfinished jobs. Empty disables
	// the bulk endpoints entirely.
	BulkDir string
	// BulkWorkers is the bulk drain concurrency (default 2). Bulk workers
	// yield to interactive traffic whenever the admission queue is
	// non-empty.
	BulkWorkers int
	// MaxBulkBody caps one /v1/bulk archive upload (default 512 MiB).
	MaxBulkBody int64
	// BulkMaxEntries / BulkMaxEntrySize bound one bulk archive (defaults
	// 1024 entries, 64 MiB per entry).
	BulkMaxEntries   int
	BulkMaxEntrySize int64
	// WatchInterval is how often the artifact file is polled for changes
	// (default 2s; negative disables watching — reloads then happen only
	// via Reload, e.g. on SIGHUP).
	WatchInterval time.Duration
	// Log receives the service's structured diagnostics (default
	// slog.Default()).
	Log *slog.Logger
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 16
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueWait == 0 {
		c.QueueWait = time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 30 * time.Second
	}
	if c.ReadyWatermark == 0 {
		c.ReadyWatermark = c.MaxQueue
	}
	if c.ReadyWatermark < 1 {
		c.ReadyWatermark = 1
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	if c.WatchInterval == 0 {
		c.WatchInterval = 2 * time.Second
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// VarRecord is one inferred variable in an InferResponse — the same
// per-variable schema `cati infer -json` emits (minus the file name,
// which an uploaded image does not have).
type VarRecord struct {
	FuncLow uint64 `json:"func_low"`
	Slot    int32  `json:"slot"`
	Global  bool   `json:"global"`
	Size    int    `json:"size"`
	NumVUCs int    `json:"num_vucs"`
	Class   string `json:"class"`
}

// InferResponse is the /v1/infer success body.
type InferResponse struct {
	// Model is the fingerprint of the model that produced Vars (from the
	// cache, the model that originally computed the entry).
	Model string `json:"model"`
	// Cached reports a result-cache hit (no inference ran).
	Cached bool `json:"cached"`
	// NumVars is len(Vars), for cheap client-side sanity checks.
	NumVars int `json:"num_vars"`
	// Vars are the inferred variables, ordered by function and slot.
	Vars []VarRecord `json:"vars"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Model is set when a specific model attempted the inference.
	Model string `json:"model,omitempty"`
	// Attempts is how many times the binary ran (retries included).
	Attempts int `json:"attempts,omitempty"`
}

// ModelInfo describes the active model in a ModelsResponse.
type ModelInfo struct {
	Fingerprint string `json:"fingerprint"`
	// Arch is the instruction set the model was trained on; uploads for
	// another ISA fail per-binary with an arch-mismatch error.
	Arch     string    `json:"arch"`
	Path     string    `json:"path"`
	LoadedAt time.Time `json:"loaded_at"`
	Reloads  uint64    `json:"reloads"`
}

// HealthInfo mirrors the two probe endpoints in /v1/models: Live is what
// GET /v1/healthz answers (always true when the handler runs at all) and
// Ready is what GET /v1/readyz answers, with the gating reason when not.
type HealthInfo struct {
	Live   bool   `json:"live"`
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// ModelsResponse is the /v1/models body.
type ModelsResponse struct {
	Active ModelInfo  `json:"active"`
	Health HealthInfo `json:"health"`
}

// Server is a running (or startable) inference service.
type Server struct {
	cfg      Config
	registry *Registry
	adm      *admission
	cache    *resultCache
	bulk     *bulkq.Manager

	httpSrv *http.Server
	lis     net.Listener
	// Addr is the bound listen address (useful with ":0"). Set by Start.
	Addr string

	// latEWMA is the Retry-After estimator's state: an exponentially
	// weighted moving average of computed (non-cached) request latency,
	// stored as float64 seconds bits. Zero means "no observation yet".
	latEWMA atomic.Uint64

	// infer is the inference seam: one parsed binary on one model
	// snapshot. New wires it to core.InferBatchOpts with the configured
	// per-binary timeout and retries; tests swap in blocking or panicking
	// fakes. Callers go through inferActive, which contains its panics.
	infer func(ctx context.Context, m *Model, bin *elfx.Binary) core.BinaryResult

	// runCtx scopes the artifact watcher and the bulk drain; it is
	// cancelled only after the HTTP drain.
	runCtx    context.Context
	runCancel context.CancelFunc
	watchDone chan struct{}
	bulkDone  chan struct{}
}

// New builds a Server from cfg and loads the initial model; a missing or
// corrupt artifact fails here, before any port is bound.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.ModelPath == "" {
		return nil, errors.New("serve: Config.ModelPath is required")
	}
	reg := NewRegistry(cfg.ModelPath, cfg.Workers, cfg.Log)
	if err := reg.Load(); err != nil {
		return nil, err
	}
	opts := core.BatchOptions{Timeout: cfg.BinaryTimeout, Retries: cfg.Retries}
	s := &Server{
		cfg:      cfg,
		registry: reg,
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		cache:    newResultCache(cfg.CacheSize),
		infer: func(ctx context.Context, m *Model, bin *elfx.Binary) core.BinaryResult {
			results, err := m.CATI.InferBatchOpts(ctx, []*elfx.Binary{bin}, opts)
			if err != nil {
				return core.BinaryResult{Err: err}
			}
			return results[0]
		},
	}
	mux := http.NewServeMux()
	if cfg.BulkDir != "" {
		mgr, err := bulkq.Open(bulkq.Config{
			Dir:          cfg.BulkDir,
			Workers:      cfg.BulkWorkers,
			MaxEntries:   cfg.BulkMaxEntries,
			MaxEntrySize: cfg.BulkMaxEntrySize,
			MaxBody:      cfg.MaxBulkBody,
			Infer:        s.bulkInfer,
			Yield:        func() bool { return s.adm.queued() > 0 },
			Log:          cfg.Log,
		})
		if err != nil {
			return nil, err
		}
		s.bulk = mgr
		mgr.Mount(mux)
	}
	mux.HandleFunc("POST /v1/infer", s.handleInfer)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/cache/{sha}", s.handleCacheGet)
	// Observability read side on the data port, so a fleet router (or a
	// scraper that only knows the serve address) can federate this
	// replica's metrics and traces without discovering the debug port.
	mux.Handle("GET /metrics", telemetry.Default())
	mux.Handle("GET /v1/trace/{id}", traceLookup(func(c *trace.Collector) http.Handler {
		return c.TraceHandler()
	}))
	mux.Handle("GET /debug/traces", traceLookup(func(c *trace.Collector) http.Handler {
		return c.RecentHandler()
	}))
	s.httpSrv = &http.Server{Handler: mux}
	return s, nil
}

// Registry exposes the model registry (for SIGHUP wiring and tests).
func (s *Server) Registry() *Registry { return s.registry }

// Bulk exposes the bulk-queue manager (nil when BulkDir is unset) — the
// fleet status page and tests read its Summary.
func (s *Server) Bulk() *bulkq.Manager { return s.bulk }

// Start binds addr and serves until Shutdown. The listener is bound
// synchronously — a bad address fails here — and serving, the artifact
// watcher and the bulk drain each run on their own goroutine.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.lis = lis
	s.Addr = lis.Addr().String()
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	s.watchDone = make(chan struct{})
	go func() {
		defer close(s.watchDone)
		s.registry.Watch(s.runCtx, s.cfg.WatchInterval)
	}()
	if s.bulk != nil {
		s.bulkDone = make(chan struct{})
		go func() {
			defer close(s.bulkDone)
			s.bulk.Run(s.runCtx)
		}()
	}
	go func() { _ = s.httpSrv.Serve(lis) }()
	s.cfg.Log.Info("catiserve listening", "addr", s.Addr,
		"model", s.registry.Active().Fingerprint,
		"max_inflight", s.cfg.MaxInFlight, "max_queue", s.cfg.MaxQueue,
		"cache", s.cfg.CacheSize)
	return nil
}

// Shutdown drains gracefully: stop accepting, wait (up to ctx's deadline)
// for in-flight requests to finish, then stop the watcher and the bulk
// queue. Safe to call once after Start.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.stop()
	return err
}

// Close tears down without draining (tests, error paths).
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	s.stop()
	return err
}

// stop ends the background work once the HTTP server is down: it cancels
// the run context, waits for the watcher and the bulk drain, and closes
// the bulk queue.
func (s *Server) stop() {
	if s.runCancel != nil {
		s.runCancel()
		<-s.watchDone
		if s.bulkDone != nil {
			<-s.bulkDone
		}
	}
	if s.bulk != nil {
		_ = s.bulk.Close()
	}
}

// handleHealthz answers liveness. It touches no lock, no queue and no
// model state, so it stays responsive under full overload — orchestrators
// must see "alive and shedding", not a timeout, when the service is busy.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ready is the /v1/readyz predicate: a model is loaded and the admission
// wait queue sits below the watermark. Distinct from liveness — a live
// process that is drowning should be pulled from rotation (readyz 503)
// without being restarted (healthz still ok).
func (s *Server) ready() (bool, string) {
	if s.registry.Active() == nil {
		return false, "no model loaded"
	}
	if q := s.adm.queued(); q >= s.cfg.ReadyWatermark {
		return false, fmt.Sprintf("admission queue at %d (watermark %d)", q, s.cfg.ReadyWatermark)
	}
	return true, ""
}

// handleReadyz answers readiness. Like healthz it touches no lock — two
// channel-length reads and an atomic pointer load — so it stays
// responsive exactly when its answer matters most (overload).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if ok, reason := s.ready(); !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, reason)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleCacheGet is the peer-fill read path: given an image's SHA-256 it
// returns the cached result under the active model, or 404. A fleet
// router (internal/fleet) uses it to pull a warm result from the shard
// that owns a key before making a cold replica recompute it. Lookup
// cost is one mutex'd map probe — no admission slot needed.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	_, span := trace.StartFromRequest(r, "serve.cache-get")
	defer span.End()
	raw, err := hex.DecodeString(r.PathValue("sha"))
	if err != nil || len(raw) != sha256.Size {
		span.SetAttr(trace.Bool("hit", false))
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "sha must be 64 hex chars (SHA-256 of the image)"})
		return
	}
	active := s.registry.Active()
	key := cacheKey{model: active.Fingerprint}
	copy(key.image[:], raw)
	vars, ok := s.cache.get(key)
	span.SetAttr(trace.Bool("hit", ok))
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no cached result", Model: active.Fingerprint})
		return
	}
	writeInferResponse(w, active.Fingerprint, true, vars)
}

// observeLatency feeds one computed (non-cached) request's wall time into
// the Retry-After estimator: EWMA with α=0.2, lock-free via CAS.
func (s *Server) observeLatency(d time.Duration) {
	sec := d.Seconds()
	for {
		old := s.latEWMA.Load()
		next := sec
		if old != 0 {
			next = 0.2*sec + 0.8*math.Float64frombits(old)
		}
		if s.latEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfterSeconds derives the 429 Retry-After hint from live load: the
// expected drain time of everything ahead of a returning client (queue
// depth × recent per-request latency, spread over the in-flight lanes),
// clamped to [RetryAfter, MaxRetryAfter]. Before any latency has been
// observed it falls back to the configured minimum.
func (s *Server) retryAfterSeconds() int {
	min := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
	ew := math.Float64frombits(s.latEWMA.Load())
	if ew <= 0 {
		return min
	}
	secs := int(math.Ceil(float64(s.adm.queued()+1) * ew / float64(s.cfg.MaxInFlight)))
	if secs < min {
		secs = min
	}
	if max := int(math.Ceil(s.cfg.MaxRetryAfter.Seconds())); secs > max {
		secs = max
	}
	return secs
}

// handleModels reports the active model snapshot plus both health probes.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	m := s.registry.Active()
	ready, reason := s.ready()
	writeJSON(w, http.StatusOK, ModelsResponse{
		Active: ModelInfo{
			Fingerprint: m.Fingerprint,
			Arch:        m.CATI.Arch(),
			Path:        m.Path,
			LoadedAt:    m.LoadedAt,
			Reloads:     s.registry.Reloads(),
		},
		Health: HealthInfo{Live: true, Ready: ready, Reason: reason},
	})
}

// handleInfer is the data path: read → cache probe → admission → parse →
// infer → respond. The cache probe runs before admission so repeat
// traffic is served even when the compute side is saturated.
//
// The request runs under a "serve.request" span: continued from the
// X-Cati-Trace header when a fleet router forwarded the request, locally
// rooted when a client hit the replica directly. Each phase below becomes
// a child span, so /v1/trace/{id} explains where a slow request's time
// went — queued, parsing, or inferring.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := http.StatusOK
	ctx, span := trace.StartFromRequest(r, "serve.request", trace.String("path", "/v1/infer"))
	if !span.TraceID().IsZero() {
		w.Header().Set("X-Cati-Trace-Id", span.TraceID().String())
	}
	defer func() {
		span.SetAttr(trace.Int("code", code))
		span.End()
		countRequest(code)
		mReqSeconds.ObserveWithExemplar(time.Since(start).Seconds(), trace.IDFromContext(ctx))
	}()

	image, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			code = http.StatusRequestEntityTooLarge
			writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf("image exceeds %d-byte limit", s.cfg.MaxBody)})
			return
		}
		code = http.StatusBadRequest
		writeJSON(w, code, ErrorResponse{Error: "reading request body: " + err.Error()})
		return
	}
	if len(image) == 0 {
		code = http.StatusBadRequest
		writeJSON(w, code, ErrorResponse{Error: "empty request body (expected a raw ELF image)"})
		return
	}

	span.SetAttr(trace.Int("image_bytes", len(image)))

	// Cache probe against the currently active model.
	active := s.registry.Active()
	key := imageKey(image, active.Fingerprint)
	_, pspan := trace.Start(ctx, "serve.cache-probe")
	vars, hit := s.cache.get(key)
	pspan.SetAttr(trace.Bool("hit", hit))
	pspan.End()
	if hit {
		writeInferResponse(w, active.Fingerprint, true, vars)
		return
	}

	// Admission: hold a slot for the whole parse+infer, so the in-flight
	// bound covers everything that costs CPU or memory.
	actx, aspan := trace.Start(ctx, "serve.admission")
	release, err := s.adm.acquire(actx)
	aspan.SetError(err)
	aspan.End()
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			countRejection("queue_full")
		case errors.Is(err, ErrQueueTimeout):
			countRejection("queue_timeout")
		default: // client went away while queued
			code = 499 // nginx convention: client closed request
			countRejection("client_gone")
			return
		}
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, code, ErrorResponse{Error: err.Error()})
		return
	}
	defer release()

	_, rspan := trace.Start(ctx, "serve.parse")
	bin, err := elfx.Read(image)
	rspan.SetError(err)
	rspan.End()
	if err != nil {
		code = http.StatusBadRequest
		writeJSON(w, code, ErrorResponse{Error: err.Error()})
		return
	}

	// The inference call runs under the "serve.batch" span, the name trace
	// consumers key on, so the pipeline's five stage spans — recover,
	// extract, embed, predict, vote — hang directly off it.
	bctx, bspan := trace.Start(ctx, "serve.batch")
	defer bspan.End()
	res, m := s.inferActive(bctx, bin)
	bspan.SetAttr(trace.Int("attempts", res.Attempts))
	bspan.SetError(res.Err)
	if res.Err != nil {
		switch {
		case ctx.Err() != nil:
			// The client left (or a fleet hedge lost): inference stopped at
			// the next stage boundary and nobody reads a response.
			bspan.Event("client-gone")
			code = 499
			return
		case errors.Is(res.Err, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		case errors.Is(res.Err, ErrBatchPanic):
			// A contained panic is the server's fault, not the input's:
			// 500 tells clients (and the fleet router) to retry elsewhere,
			// where a 422 would pin the blame on the binary.
			code = http.StatusInternalServerError
		default:
			code = http.StatusUnprocessableEntity
		}
		writeJSON(w, code, ErrorResponse{
			Error:    res.Err.Error(),
			Model:    m.Fingerprint,
			Attempts: res.Attempts,
		})
		return
	}
	// Key the stored entry by the model that actually ran (it may be
	// newer than the one probed above if a reload landed in between).
	s.cache.put(imageKey(image, m.Fingerprint), res.Vars)
	s.observeLatency(time.Since(start))
	writeInferResponse(w, m.Fingerprint, false, res.Vars)
}

// ErrBatchPanic reports that inference panicked outside the per-binary
// containment core.InferBatchOpts provides — in the inference seam or
// around it. The request fails with it (a 500, or a failed bulk record)
// and the daemon keeps serving.
var ErrBatchPanic = errors.New("serve: inference panicked")

// inferActive is the one inference call behind /v1/infer and bulk jobs:
// it snapshots the active model and runs bin through the s.infer seam
// under ctx, returning the result and the model that produced it (after
// a hot reload, possibly newer than the one the caller probed the cache
// with). A panic escaping the seam becomes an ErrBatchPanic result
// rather than a crash: a long-lived service turns one poisoned request
// into that request's error, never into a daemon restart.
func (s *Server) inferActive(ctx context.Context, bin *elfx.Binary) (res core.BinaryResult, m *Model) {
	m = s.registry.Active()
	defer func() {
		if r := recover(); r != nil {
			countBatchPanic()
			res = core.BinaryResult{Err: fmt.Errorf("%w: %v", ErrBatchPanic, r)}
		}
	}()
	return s.infer(ctx, m, bin), m
}

// countBatchPanic records one contained inference panic.
func countBatchPanic() {
	if !telemetry.On() {
		return
	}
	telemetry.Default().Counter("cati_serve_batch_panics_total",
		"Inference panics contained outside core's per-binary containment.").Inc()
}

// writeInferResponse renders vars in the `cati infer -json` per-variable
// schema plus the model fingerprint (also exposed as a header so clients
// streaming the body can route on it early).
func writeInferResponse(w http.ResponseWriter, fingerprint string, cached bool, vars []core.InferredVar) {
	recs := toVarRecords(vars)
	w.Header().Set("X-Cati-Model", fingerprint)
	writeJSON(w, http.StatusOK, InferResponse{
		Model:   fingerprint,
		Cached:  cached,
		NumVars: len(recs),
		Vars:    recs,
	})
}

// traceLookup defers to the process trace collector at request time,
// answering 404 while tracing is disabled (same contract as the
// telemetry debug server's mounts).
func traceLookup(mk func(*trace.Collector) http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := trace.Default()
		if c == nil {
			http.Error(w, "tracing disabled (no collector installed)", http.StatusNotFound)
			return
		}
		mk(c).ServeHTTP(w, r)
	})
}

// writeJSON writes one JSON body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
