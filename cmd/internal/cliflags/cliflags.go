// Package cliflags centralizes the flag plumbing shared by the CATI
// CLIs (catitrain, cati, catibench, catigen, catiserve): the worker-pool
// size, the run deadline, stage tracing, the telemetry/diagnostics trio
// (-debug-addr, -log-format, -log-level), the common -seed/-window
// knobs, and the catiserve service group (-addr, admission, batching,
// cache and drain knobs). One definition means every tool spells the
// flags, defaults and help text identically.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gemm"
	"repro/internal/isa"
	_ "repro/internal/isa/isas" // register built-in architectures for -arch
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vuc"
)

// Diag carries the diagnostics flags every CLI shares: structured-log
// shape and the optional debug server.
type Diag struct {
	// DebugAddr is the -debug-addr flag: when non-empty, serve /metrics,
	// /healthz, /debug/vars and /debug/pprof on this address and enable
	// metric collection.
	DebugAddr string
	// LogFormat is the -log-format flag: "text" or "json".
	LogFormat string
	// LogLevel is the -log-level flag: debug, info, warn or error.
	LogLevel string
	// TraceSlow is the -trace-slow flag: locally rooted requests slower
	// than this are pinned by the flight recorder and logged.
	TraceSlow time.Duration
	// TraceRetain is the -trace-retain flag: how many traces the bounded
	// in-memory span store keeps (0: the trace package default).
	TraceRetain int
	// TraceJSONL is the -trace-jsonl flag: when non-empty, every finished
	// span is appended to this file as one JSON line.
	TraceJSONL string
	// Exemplars is the -exemplars flag: annotate histogram buckets in the
	// /metrics exposition with recent trace IDs.
	Exemplars bool
	// Server is the debug server Setup started (nil without -debug-addr).
	// Long-lived daemons drain it on exit via Server.Shutdown so a
	// monitoring system's in-flight scrape is never truncated.
	Server *telemetry.Server
	// jsonl is the open -trace-jsonl sink (closed by CloseTracing).
	jsonl *os.File
}

// AddDiag registers -debug-addr, -log-format and -log-level on the flag
// set and returns the struct they fill in after fs.Parse.
func AddDiag(fs *flag.FlagSet) *Diag {
	d := &Diag{}
	addDiag(fs, d)
	return d
}

func addDiag(fs *flag.FlagSet, d *Diag) {
	fs.StringVar(&d.DebugAddr, "debug-addr", "", "serve /metrics, /healthz, /debug/vars, /debug/pprof, /v1/trace/{id} and /debug/traces on this address (e.g. localhost:6060) and enable metric collection and tracing")
	fs.StringVar(&d.LogFormat, "log-format", "text", "diagnostic log format: text or json (always on stderr)")
	fs.StringVar(&d.LogLevel, "log-level", "info", "diagnostic log level: debug, info, warn or error")
	fs.DurationVar(&d.TraceSlow, "trace-slow", 0, "slow-request flight recorder: pin and log traces of locally rooted requests slower than this (0: off)")
	fs.IntVar(&d.TraceRetain, "trace-retain", 0, "traces kept in the bounded in-memory span store (0: 256)")
	fs.StringVar(&d.TraceJSONL, "trace-jsonl", "", "append every finished span to this file as JSON lines")
	fs.BoolVar(&d.Exemplars, "exemplars", false, "annotate /metrics histogram buckets with recent trace-ID exemplars")
}

// Setup builds the shared structured logger on stderr, installs it as the
// slog default, and — when -debug-addr was given — starts the debug
// server (which enables metric collection). Call it right after fs.Parse;
// everything diagnostic the CLI prints from then on goes through the
// returned logger, keeping stdout exclusively for data.
func (d *Diag) Setup() (*slog.Logger, error) {
	log, err := telemetry.NewLogger(os.Stderr, d.LogFormat, d.LogLevel)
	if err != nil {
		return nil, err
	}
	slog.SetDefault(log)
	if d.DebugAddr != "" {
		srv, err := telemetry.StartServer(d.DebugAddr, nil)
		if err != nil {
			return nil, err
		}
		d.Server = srv
		log.Info("debug server listening", "addr", srv.Addr)
		if err := d.EnableTracing(log); err != nil {
			return nil, err
		}
	}
	return log, nil
}

// EnableTracing installs the process-wide trace collector built from the
// -trace-slow/-trace-retain/-trace-jsonl flags and, with -exemplars,
// turns exemplar exposition on in the default registry. Diag.Setup calls
// it whenever -debug-addr enables observability; long-lived daemons
// (catiserve) call it unconditionally so traces are collectable on the
// data port even without a debug server. Idempotent per Diag.
func (d *Diag) EnableTracing(log *slog.Logger) error {
	if trace.Default() != nil {
		return nil
	}
	cfg := trace.Config{
		MaxTraces: d.TraceRetain,
		Slow:      d.TraceSlow,
		Log:       log,
	}
	if d.TraceJSONL != "" {
		f, err := os.OpenFile(d.TraceJSONL, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening -trace-jsonl sink: %w", err)
		}
		d.jsonl = f
		cfg.JSONL = f
	}
	trace.SetDefault(trace.NewCollector(cfg))
	if d.Exemplars {
		telemetry.Default().SetExemplars(true)
	}
	return nil
}

// CloseTracing flushes and closes the -trace-jsonl sink, if one was
// opened. Safe to call (and to defer) unconditionally.
func (d *Diag) CloseTracing() {
	if d.jsonl != nil {
		_ = d.jsonl.Close()
		d.jsonl = nil
	}
}

// EnvKernel is the environment variable consulted for the math-kernel
// backend when the -kernel flag is left at its default.
const EnvKernel = "CATI_KERNEL"

// Runtime carries the execution flags every long-running CLI shares.
type Runtime struct {
	// Workers is the -workers flag (0: CATI_WORKERS env, else GOMAXPROCS).
	Workers int
	// Timeout is the -timeout flag; 0 means no deadline.
	Timeout time.Duration
	// Trace is the -trace flag: record and print per-stage wall times.
	Trace bool
	// Kernel is the -kernel flag: the gemm backend for CNN inference
	// (auto, portable, blocked or jit). Empty defers to the CATI_KERNEL
	// environment variable, then "auto".
	Kernel string
	// Diag holds the embedded diagnostics flags (Setup is promoted).
	Diag
}

// AddRuntime registers -workers, -timeout, -trace, -kernel and the
// diagnostics trio on the flag set and returns the struct they fill in
// after fs.Parse.
func AddRuntime(fs *flag.FlagSet) *Runtime {
	r := &Runtime{}
	fs.IntVar(&r.Workers, "workers", 0, "worker goroutines (0: CATI_WORKERS env, else GOMAXPROCS)")
	fs.DurationVar(&r.Timeout, "timeout", 0, "overall deadline, e.g. 90s or 10m (0: none)")
	fs.BoolVar(&r.Trace, "trace", false, "record per-stage wall times and print the breakdown on exit")
	fs.StringVar(&r.Kernel, "kernel", "", kernelHelp())
	addDiag(fs, &r.Diag)
	return r
}

func kernelHelp() string {
	return fmt.Sprintf("math kernel backend: %s (empty: CATI_KERNEL env, else auto)",
		strings.Join(gemm.BackendNames(), ", "))
}

// Kernel registers the standalone -kernel flag for CLIs that do not take
// the full Runtime group (catiserve, catigen); pass the parsed value to
// ApplyKernel after fs.Parse.
func Kernel(fs *flag.FlagSet) *string {
	return fs.String("kernel", "", kernelHelp())
}

// ApplyKernel resolves a -kernel flag value (empty: CATI_KERNEL env,
// then "auto") and selects the gemm backend process-wide. An unknown or
// unavailable backend (e.g. "jit" on a non-amd64 build) is an error, not
// a silent fallback.
func ApplyKernel(name string) error {
	if name == "" {
		name = os.Getenv(EnvKernel)
	}
	if name == "" {
		name = "auto"
	}
	return gemm.Select(name)
}

// Setup builds the shared logger and optional debug server (see
// Diag.Setup), then applies the -kernel/CATI_KERNEL backend selection so
// every CLI resolves the math core the same way. An unknown or
// unavailable backend (e.g. -kernel jit on a non-amd64 build) is a
// startup error, not a silent fallback.
func (r *Runtime) Setup() (*slog.Logger, error) {
	log, err := r.Diag.Setup()
	if err != nil {
		return nil, err
	}
	if err := ApplyKernel(r.Kernel); err != nil {
		return nil, err
	}
	return log, nil
}

// StageHook returns an obs.Hook that logs stage completions (and, at
// debug level, starts) with the same stage/wall/items/workers attributes
// the telemetry histograms are labeled by, so log lines and /metrics
// series correlate. Hooks may fire from concurrent stages; slog handlers
// are safe for that.
func StageHook(log *slog.Logger) obs.Hook {
	return func(e obs.Event) {
		if !e.Done {
			log.Debug("stage start", "stage", e.Stage, "workers", e.Workers)
			return
		}
		if e.Err != nil {
			log.Warn("stage failed", "stage", e.Stage, "wall", e.Wall, "items", e.Items, "workers", e.Workers, "error", e.Err)
			return
		}
		log.Debug("stage done", "stage", e.Stage, "wall", e.Wall, "items", e.Items, "workers", e.Workers)
	}
}

// Context returns a context that is cancelled on Ctrl-C (SIGINT) or
// SIGTERM and, when -timeout is set, when the deadline passes. The
// returned stop function releases the signal handler and must be called
// on exit; after the first signal cancels the context, a second signal
// kills the process the default way.
func (r *Runtime) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if r.Timeout > 0 {
		tctx, cancel := context.WithTimeout(ctx, r.Timeout)
		return tctx, func() { cancel(); stop() }
	}
	return ctx, stop
}

// NewTrace returns a fresh trace when -trace was given, else nil — and a
// nil *obs.Trace records nothing at no cost, so callers can attach the
// result unconditionally.
func (r *Runtime) NewTrace() *obs.Trace {
	if !r.Trace {
		return nil
	}
	return &obs.Trace{}
}

// PrintTrace writes the stage breakdown to w; a no-op when tracing is
// off (nil trace) or nothing was recorded. Safe to defer: it prints
// whatever stages completed even when the run was cancelled mid-way.
func PrintTrace(w io.Writer, t *obs.Trace) {
	if t == nil || len(t.Stages()) == 0 {
		return
	}
	fmt.Fprintln(w, "stage breakdown:")
	fmt.Fprint(w, t.Format())
}

// Serve carries the catiserve service flags: the listen address plus the
// admission, result-cache, artifact-watch and drain knobs of
// internal/serve. Defaults mirror serve.Config's documented
// defaults, so `catiserve -model m` alone is a sensible deployment.
type Serve struct {
	// Addr is the -addr flag: the inference API listen address.
	Addr string
	// MaxInFlight is the -max-inflight flag (0: 16).
	MaxInFlight int
	// MaxQueue is the -max-queue flag (0: same as the in-flight bound).
	MaxQueue int
	// QueueWait is the -queue-wait flag: a queued request's slot deadline.
	QueueWait time.Duration
	// RetryAfter is the -retry-after flag: the minimum Retry-After hint
	// on 429 responses (the emitted hint is derived from live load).
	RetryAfter time.Duration
	// MaxRetryAfter is the -max-retry-after flag: the cap on the derived
	// Retry-After hint.
	MaxRetryAfter time.Duration
	// ReadyWatermark is the -ready-watermark flag: the admission queue
	// depth at which /v1/readyz flips to 503.
	ReadyWatermark int
	// CacheSize is the -cache-size flag (negative disables the cache).
	CacheSize int
	// MaxBody is the -max-body flag: the upload size cap in bytes.
	MaxBody int64
	// BinaryTimeout and Retries are -binary-timeout / -retries, the same
	// per-binary fault-isolation knobs `cati infer` takes.
	BinaryTimeout time.Duration
	Retries       int
	// WatchInterval is the -watch-interval flag: the artifact poll period
	// (negative: reload only on SIGHUP).
	WatchInterval time.Duration
	// DrainTimeout is the -drain-timeout flag: how long shutdown waits
	// for in-flight requests before closing their connections.
	DrainTimeout time.Duration
}

// AddServe registers the catiserve service flags on the flag set and
// returns the struct they fill in after fs.Parse. Zero values defer to
// serve.Config's defaults so the service layer stays the single source
// of truth for them.
func AddServe(fs *flag.FlagSet) *Serve {
	s := &Serve{}
	fs.StringVar(&s.Addr, "addr", "localhost:8090", "inference API listen address")
	fs.IntVar(&s.MaxInFlight, "max-inflight", 0, "max concurrently executing requests (0: 16)")
	fs.IntVar(&s.MaxQueue, "max-queue", 0, "max requests queued beyond the in-flight bound (0: same as max-inflight)")
	fs.DurationVar(&s.QueueWait, "queue-wait", 0, "max time a queued request waits for a slot before 429 (0: 1s)")
	fs.DurationVar(&s.RetryAfter, "retry-after", 0, "minimum Retry-After hint on 429 responses; the emitted hint scales with queue depth and recent latency (0: 1s)")
	fs.DurationVar(&s.MaxRetryAfter, "max-retry-after", 0, "cap on the derived Retry-After hint (0: 30s)")
	fs.IntVar(&s.ReadyWatermark, "ready-watermark", 0, "admission queue depth at which /v1/readyz reports 503 (0: max-queue)")
	fs.IntVar(&s.CacheSize, "cache-size", 0, "result cache entries; negative disables caching (0: 1024)")
	fs.Int64Var(&s.MaxBody, "max-body", 0, "max uploaded image bytes (0: 64MiB)")
	fs.DurationVar(&s.BinaryTimeout, "binary-timeout", 0, "per-binary wall-time limit (0: none)")
	fs.IntVar(&s.Retries, "retries", 0, "extra attempts per binary after a transient failure")
	fs.DurationVar(&s.WatchInterval, "watch-interval", 0, "model artifact poll period; negative reloads only on SIGHUP (0: 2s)")
	fs.DurationVar(&s.DrainTimeout, "drain-timeout", 10*time.Second, "max time shutdown waits for in-flight requests")
	return s
}

// Bulk carries the bulk-analysis-queue flags shared by `catiserve` and
// `catiserve -router`: the queue directory plus the drain and ingest
// bounds of internal/bulkq. Defaults mirror bulkq.Config's documented
// defaults.
type Bulk struct {
	// Dir is the -bulk-dir flag: the durable queue directory (spool +
	// journal). Empty leaves the /v1/bulk API unmounted.
	Dir string
	// Workers is the -bulk-workers flag: bulk drain concurrency.
	Workers int
	// MaxBody is the -max-bulk-body flag: the archive upload cap in bytes.
	MaxBody int64
	// MaxEntries/MaxEntrySize are -bulk-max-entries/-bulk-max-entry: the
	// per-archive bounds.
	MaxEntries   int
	MaxEntrySize int64
}

// AddBulk registers the bulk-queue flags on the flag set and returns the
// struct they fill in after fs.Parse. Zero values defer to bulkq.Config's
// defaults so the queue layer stays the single source of truth for them.
func AddBulk(fs *flag.FlagSet) *Bulk {
	b := &Bulk{}
	fs.StringVar(&b.Dir, "bulk-dir", "", "durable bulk-queue directory (spool + journal); enables POST /v1/bulk and resumes unfinished jobs found there (empty: bulk API off)")
	fs.IntVar(&b.Workers, "bulk-workers", 0, "bulk drain concurrency; workers yield to interactive traffic (0: 2)")
	fs.Int64Var(&b.MaxBody, "max-bulk-body", 0, "max bulk archive upload bytes (0: 512MiB)")
	fs.IntVar(&b.MaxEntries, "bulk-max-entries", 0, "max entries per bulk archive (0: 1024)")
	fs.Int64Var(&b.MaxEntrySize, "bulk-max-entry", 0, "max bytes per bulk archive entry (0: 64MiB)")
	return b
}

// Fleet carries the fleet-router flags (`catiserve -router`,
// `catibench -fleet-bench`): the replica set plus the membership,
// failover and peer-fill knobs of internal/fleet. Defaults mirror
// fleet.Config's documented defaults.
type Fleet struct {
	// Replicas is the -replicas flag: comma-separated catiserve base
	// URLs forming the ring.
	Replicas string
	// Vnodes is the -vnodes flag: ring points per replica.
	Vnodes int
	// ProbeInterval/ProbeTimeout are the -probe-interval/-probe-timeout
	// flags driving health-gated membership.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// EjectAfter/RejoinAfter are -eject-after/-rejoin-after: the
	// consecutive-probe streaks that remove and readmit a replica.
	EjectAfter  int
	RejoinAfter int
	// HedgeAfter is the -hedge-after flag: how long the owner shard gets
	// before the request races the next ring replica.
	HedgeAfter time.Duration
	// OwnerRetries/Rounds are -owner-retries/-rounds: the owner's extra
	// attempts and the full plan passes per request.
	OwnerRetries int
	Rounds       int
	// Backoff/MaxBackoff are -fleet-backoff/-fleet-max-backoff: the
	// jittered exponential spacing between failure-driven attempts.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// BreakerThreshold/BreakerCooldown are -breaker-threshold /
	// -breaker-cooldown: the per-replica circuit breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// FillTimeout/FillGrace are -fill-timeout/-fill-grace: the peer
	// cache fill budget and the post-rejoin cold window.
	FillTimeout time.Duration
	FillGrace   time.Duration
	// FallbackModel is the -fallback-model flag: a local artifact the
	// router computes on when every replica has failed a request.
	FallbackModel string
}

// AddFleet registers the fleet-router flags on the flag set and returns
// the struct they fill in after fs.Parse. Zero values defer to
// fleet.Config's defaults so the fleet layer stays the single source of
// truth for them.
func AddFleet(fs *flag.FlagSet) *Fleet {
	f := &Fleet{}
	fs.StringVar(&f.Replicas, "replicas", "", "comma-separated catiserve base URLs forming the ring (e.g. http://10.0.0.1:8090,http://10.0.0.2:8090)")
	fs.IntVar(&f.Vnodes, "vnodes", 0, "consistent-hash ring points per replica (0: 64)")
	fs.DurationVar(&f.ProbeInterval, "probe-interval", 0, "membership probe period (0: 500ms)")
	fs.DurationVar(&f.ProbeTimeout, "probe-timeout", 0, "single readiness probe deadline (0: probe-interval, capped at 2s)")
	fs.IntVar(&f.EjectAfter, "eject-after", 0, "consecutive failed probes before a replica is ejected from the ring (0: 3)")
	fs.IntVar(&f.RejoinAfter, "rejoin-after", 0, "consecutive passing probes before an ejected replica rejoins (0: 2)")
	fs.DurationVar(&f.HedgeAfter, "hedge-after", 0, "owner wait before hedging to the next ring replica; negative disables (0: 250ms)")
	fs.IntVar(&f.OwnerRetries, "owner-retries", 0, "extra owner attempts after a hard failure before moving along the ring; negative disables (0: 1)")
	fs.IntVar(&f.Rounds, "rounds", 0, "full passes over the candidate plan per request (0: 3)")
	fs.DurationVar(&f.Backoff, "fleet-backoff", 0, "base jittered-exponential delay between failure-driven attempts; negative disables (0: 25ms)")
	fs.DurationVar(&f.MaxBackoff, "fleet-max-backoff", 0, "cap on the attempt backoff (0: 1s)")
	fs.IntVar(&f.BreakerThreshold, "breaker-threshold", 0, "consecutive request failures opening a replica's circuit breaker (0: 5)")
	fs.DurationVar(&f.BreakerCooldown, "breaker-cooldown", 0, "how long an open breaker sheds before a half-open probe (0: 2s)")
	fs.DurationVar(&f.FillTimeout, "fill-timeout", 0, "peer cache fill probe budget (0: 100ms)")
	fs.DurationVar(&f.FillGrace, "fill-grace", 0, "post-rejoin window in which a cold owner's requests first probe the covering peer's cache (0: 10x probe-interval)")
	fs.StringVar(&f.FallbackModel, "fallback-model", "", "local model artifact to compute on when every replica fails a request (empty: such requests get 502)")
	return f
}

// ReplicaList splits and normalizes the -replicas value: entries are
// trimmed, empties dropped, and bare host:port entries get an http://
// scheme.
func (f *Fleet) ReplicaList() []string {
	var out []string
	for _, r := range strings.Split(f.Replicas, ",") {
		r = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(r), "/"))
		if r == "" {
			continue
		}
		if !strings.Contains(r, "://") {
			r = "http://" + r
		}
		out = append(out, r)
	}
	return out
}

// Seed registers the common -seed flag with the tool's default.
func Seed(fs *flag.FlagSet, def int64) *int64 {
	return fs.Int64("seed", def, "seed namespacing all stochastic choices")
}

// Window registers the common -window flag (the VUC half-window w).
func Window(fs *flag.FlagSet) *int {
	return fs.Int("window", vuc.DefaultWindow, "VUC window w")
}

// Arch registers the common -arch flag selecting the target instruction
// set for generation/training; pass the parsed value to CheckArch after
// fs.Parse.
func Arch(fs *flag.FlagSet) *string {
	return fs.String("arch", "x86_64",
		"target instruction set: "+strings.Join(isa.Names(), " or "))
}

// CheckArch validates a parsed -arch value against the registered
// architectures.
func CheckArch(name string) error {
	_, err := isa.ByName(name)
	return err
}
