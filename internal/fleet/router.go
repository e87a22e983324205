package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/bulkq"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config tunes the fleet router; zero values take the documented
// defaults.
type Config struct {
	// Replicas are the catiserve base URLs (e.g. http://10.0.0.1:8090)
	// forming the ring. Required, at least one.
	Replicas []string
	// Vnodes is the number of ring points per replica (default 64).
	Vnodes int
	// ProbeInterval is the membership probe period (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readiness probe (default: ProbeInterval,
	// capped at 2s).
	ProbeTimeout time.Duration
	// EjectAfter is K: consecutive failed probes before a replica is
	// ejected from the ring (default 3).
	EjectAfter int
	// RejoinAfter is M: consecutive successful probes before an ejected
	// replica rejoins (default 2).
	RejoinAfter int
	// HedgeAfter is how long the router waits on a replica before racing
	// the same request against the next one on the ring (default 250ms;
	// negative disables hedging).
	HedgeAfter time.Duration
	// OwnerRetries is how many extra attempts the owner shard gets after
	// a hard failure before the request moves along the ring (default 1).
	OwnerRetries int
	// Rounds is how many full passes over the candidate plan a request
	// may make — with growing jittered backoff between passes — before
	// the local fallback (or 502). A single pass can exhaust in
	// milliseconds during a fault transition; later rounds see the
	// post-transition fleet. Default 3; 1 disables re-offering.
	Rounds int
	// Backoff is the base delay between failure-driven forward attempts,
	// growing exponentially with ±50% jitter (default 25ms; negative
	// disables). MaxBackoff caps the growth (default 1s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// BreakerThreshold is the consecutive request failures that open a
	// replica's circuit breaker (default 5); BreakerCooldown is how long
	// it sheds before a half-open probe (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// FillTimeout bounds one peer cache fill probe (default 100ms) —
	// the fill is an optimization and must never cost more than it
	// saves; any error inside the budget degrades to a normal compute.
	FillTimeout time.Duration
	// FillGrace is how long after a rejoin the (cold) owner's requests
	// first probe the peer that covered its range (default 10×
	// ProbeInterval).
	FillGrace time.Duration
	// FallbackModel is an optional local model artifact: when every
	// replica has failed a request, the router computes it in-process
	// rather than failing the client (default: none — such requests get
	// 502).
	FallbackModel string
	// Workers is the fallback model's inference worker count.
	Workers int
	// MaxBody caps an uploaded image's size in bytes (default 64 MiB).
	MaxBody int64
	// BulkDir, when set, enables the durable bulk-analysis queue on the
	// router: /v1/bulk jobs spool here and each binary is dispatched to
	// its consistent-hash owner replica. Empty disables the bulk API.
	BulkDir string
	// BulkWorkers is the bulk dispatch concurrency (default 2).
	BulkWorkers int
	// MaxBulkBody caps one /v1/bulk archive upload (default 512 MiB).
	MaxBulkBody int64
	// BulkMaxEntries / BulkMaxEntrySize bound one bulk archive (defaults
	// 1024 entries, 64 MiB per entry).
	BulkMaxEntries   int
	BulkMaxEntrySize int64
	// Log receives structured diagnostics (default slog.Default()).
	Log *slog.Logger
	// Client issues forwarded requests and fill probes (default: a fresh
	// http.Client; per-attempt deadlines come from request contexts).
	Client *http.Client
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.Vnodes == 0 {
		c.Vnodes = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
		if c.ProbeTimeout > 2*time.Second {
			c.ProbeTimeout = 2 * time.Second
		}
	}
	if c.EjectAfter < 1 {
		c.EjectAfter = 3
	}
	if c.RejoinAfter < 1 {
		c.RejoinAfter = 2
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 250 * time.Millisecond
	}
	if c.OwnerRetries < 0 {
		c.OwnerRetries = 0
	} else if c.OwnerRetries == 0 {
		c.OwnerRetries = 1
	}
	if c.Rounds == 0 {
		c.Rounds = 3
	}
	if c.Rounds < 1 {
		c.Rounds = 1
	}
	if c.Backoff == 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.BreakerThreshold < 1 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.FillTimeout <= 0 {
		c.FillTimeout = 100 * time.Millisecond
	}
	if c.FillGrace == 0 {
		c.FillGrace = 10 * c.ProbeInterval
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Status is the /v1/fleet body: per-replica membership plus this
// router's robustness counters.
type Status struct {
	Replicas []ReplicaStatus `json:"replicas"`
	Up       int             `json:"up"`
	// Counter snapshots since this router started.
	Ejections      uint64 `json:"ejections"`
	Rejoins        uint64 `json:"rejoins"`
	Hedges         uint64 `json:"hedges"`
	Retries        uint64 `json:"retries"`
	CacheFills     uint64 `json:"cache_fills"`
	LocalFallbacks uint64 `json:"local_fallbacks"`
	// FallbackModel is the local model's fingerprint ("" without one).
	FallbackModel string `json:"fallback_model,omitempty"`
	// Bulk summarizes the router's bulk queue (absent when -bulk-dir is
	// unset).
	Bulk *bulkq.Summary `json:"bulk,omitempty"`
}

// Router consistent-hashes /v1/infer requests across the replica set
// with health-gated membership, retry/hedge failover, per-replica
// circuit breaking and peer cache fill. See the package comment for the
// degradation ladder.
type Router struct {
	cfg     Config
	ring    *ring
	members []*member
	prober  *prober
	bulk    *bulkq.Manager

	// localInfer is the last-rung fallback (nil without FallbackModel);
	// tests substitute canned results.
	localInfer func(ctx context.Context, image []byte) ([]core.InferredVar, string, error)
	localFP    string

	hedges    atomic.Uint64
	retries   atomic.Uint64
	fills     atomic.Uint64
	fallbacks atomic.Uint64

	httpSrv *http.Server
	lis     net.Listener
	// Addr is the bound listen address (useful with ":0"). Set by Start.
	Addr string

	runCtx    context.Context
	runCancel context.CancelFunc
	probeDone chan struct{}
	bulkDone  chan struct{}
}

// New builds a Router from cfg; the fallback model (if any) is loaded
// here, before any port is bound.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: Config.Replicas is required")
	}
	rt := &Router{
		cfg:  cfg,
		ring: newRing(cfg.Replicas, cfg.Vnodes),
	}
	for _, u := range cfg.Replicas {
		m := &member{url: u, br: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)}
		m.up.Store(true) // optimistic: the prober demotes the dead
		rt.members = append(rt.members, m)
	}
	rt.prober = &prober{
		members:     rt.members,
		interval:    cfg.ProbeInterval,
		ejectAfter:  cfg.EjectAfter,
		rejoinAfter: cfg.RejoinAfter,
		client:      &http.Client{Timeout: cfg.ProbeTimeout},
		log:         cfg.Log,
	}
	if cfg.FallbackModel != "" {
		blob, err := os.ReadFile(cfg.FallbackModel)
		if err != nil {
			return nil, fmt.Errorf("fleet: fallback model: %w", err)
		}
		cati, err := core.Load(blob)
		if err != nil {
			return nil, fmt.Errorf("fleet: fallback model %s: %w", cfg.FallbackModel, err)
		}
		cati.Pipeline.Cfg.Workers = cfg.Workers
		rt.localFP = cati.Fingerprint()
		rt.localInfer = func(ctx context.Context, image []byte) ([]core.InferredVar, string, error) {
			vars, err := cati.InferImageCtx(ctx, image)
			return vars, rt.localFP, err
		}
	}
	mux := http.NewServeMux()
	if cfg.BulkDir != "" {
		mgr, err := bulkq.Open(bulkq.Config{
			Dir:          cfg.BulkDir,
			Workers:      cfg.BulkWorkers,
			MaxEntries:   cfg.BulkMaxEntries,
			MaxEntrySize: cfg.BulkMaxEntrySize,
			MaxBody:      cfg.MaxBulkBody,
			Infer:        rt.bulkInfer,
			Log:          cfg.Log,
		})
		if err != nil {
			return nil, err
		}
		rt.bulk = mgr
		mgr.Mount(mux)
	}
	mux.HandleFunc("POST /v1/infer", rt.handleInfer)
	mux.HandleFunc("GET /v1/fleet", rt.handleFleet)
	mux.HandleFunc("GET /v1/fleet/metrics", rt.handleFleetMetrics)
	mux.HandleFunc("GET /v1/trace/{id}", rt.handleTrace)
	mux.HandleFunc("GET /v1/models", rt.handleModels)
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", rt.handleReadyz)
	mux.Handle("GET /metrics", telemetry.Default())
	rt.httpSrv = &http.Server{Handler: mux}
	return rt, nil
}

// Start binds addr and serves until Shutdown; the membership prober
// starts with it.
func (rt *Router) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	rt.lis = lis
	rt.Addr = lis.Addr().String()
	rt.runCtx, rt.runCancel = context.WithCancel(context.Background())
	rt.probeDone = make(chan struct{})
	go func() {
		defer close(rt.probeDone)
		rt.prober.run(rt.runCtx)
	}()
	if rt.bulk != nil {
		rt.bulkDone = make(chan struct{})
		go func() {
			defer close(rt.bulkDone)
			rt.bulk.Run(rt.runCtx)
		}()
	}
	go func() { _ = rt.httpSrv.Serve(lis) }()
	rt.cfg.Log.Info("fleet router listening", "addr", rt.Addr,
		"replicas", len(rt.members), "vnodes", rt.cfg.Vnodes,
		"probe_interval", rt.cfg.ProbeInterval,
		"eject_after", rt.cfg.EjectAfter, "rejoin_after", rt.cfg.RejoinAfter,
		"hedge_after", rt.cfg.HedgeAfter, "fallback", rt.localFP != "")
	return nil
}

// Shutdown drains the HTTP side, then stops the prober and the bulk
// workers (in-flight bulk binaries resume after restart).
func (rt *Router) Shutdown(ctx context.Context) error {
	err := rt.httpSrv.Shutdown(ctx)
	if rt.runCancel != nil {
		rt.runCancel()
		<-rt.probeDone
		if rt.bulkDone != nil {
			<-rt.bulkDone
		}
	}
	if rt.bulk != nil {
		_ = rt.bulk.Close()
	}
	return err
}

// Close tears down without draining.
func (rt *Router) Close() error {
	err := rt.httpSrv.Close()
	if rt.runCancel != nil {
		rt.runCancel()
		<-rt.probeDone
		if rt.bulkDone != nil {
			<-rt.bulkDone
		}
	}
	if rt.bulk != nil {
		_ = rt.bulk.Close()
	}
	return err
}

// status snapshots the fleet for /v1/fleet (and the bench sweep).
func (rt *Router) status() Status {
	st := Status{
		Ejections:      rt.prober.ejections.Load(),
		Rejoins:        rt.prober.rejoins.Load(),
		Hedges:         rt.hedges.Load(),
		Retries:        rt.retries.Load(),
		CacheFills:     rt.fills.Load(),
		LocalFallbacks: rt.fallbacks.Load(),
		FallbackModel:  rt.localFP,
	}
	if rt.bulk != nil {
		sum := rt.bulk.Summary()
		st.Bulk = &sum
	}
	for _, m := range rt.members {
		m.mu.Lock()
		rs := ReplicaStatus{
			URL: m.url, Up: m.up.Load(),
			ConsecutiveFails: m.fails, ConsecutiveOKs: m.oks,
			Ejections: m.ejections, LastError: m.lastErr, LastProbe: m.lastProbe,
			Breaker: m.br.peek().String(),
		}
		m.mu.Unlock()
		st.Replicas = append(st.Replicas, rs)
		if rs.Up {
			st.Up++
		}
	}
	return st
}

func (rt *Router) handleFleet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.status())
}

// handleHealthz answers router liveness (lock-free, like the replicas').
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz: the router can do useful work while at least one replica
// is in the ring, or it has a local fallback model.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, m := range rt.members {
		if m.up.Load() {
			fmt.Fprintln(w, "ready")
			return
		}
	}
	if rt.localInfer != nil {
		fmt.Fprintln(w, "ready (local fallback only)")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "no replicas in the ring and no fallback model")
}

// handleModels proxies the active-model report from the first live
// replica, so fleet clients use the same endpoint contract single-node
// clients do.
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	for _, m := range rt.members {
		if !m.up.Load() {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, m.url+"/v1/models", nil)
		if err != nil {
			continue
		}
		resp, err := rt.cfg.Client.Do(req)
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("X-Cati-Replica", m.url)
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return
	}
	writeJSON(w, http.StatusBadGateway, serve.ErrorResponse{Error: "fleet: no live replica to report models from"})
}

// fwdOut is one forward attempt's outcome (or a peer-fill hit, or the
// local fallback's synthesized response).
type fwdOut struct {
	m     *member // nil for local fallback
	code  int
	body  []byte
	model string // X-Cati-Model from the replica
	fill  bool   // answered from a peer's cache
	err   error  // transport/truncation failure (code/body invalid)
}

// final reports whether out settles the client request: a transport-
// clean response that is not a server-side failure. 4xx (bad image, too
// large, per-binary 422) are deterministic — the same bytes fail
// everywhere — so they pass through instead of burning retries; 429 and
// 5xx mean "try another replica".
func (out fwdOut) final() bool {
	return out.err == nil && out.code < 500 && out.code != http.StatusTooManyRequests
}

// handleInfer is the routed data path: hash → candidates → peer fill →
// retry/hedge loop → local fallback.
func (rt *Router) handleInfer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := http.StatusOK
	ctx, span := trace.StartFromRequest(r, "fleet.request",
		trace.String("path", "/v1/infer"))
	defer func() {
		span.SetAttr(trace.Int("code", code))
		span.End()
		countRouted(code)
		mRouteSeconds.ObserveWithExemplar(time.Since(start).Seconds(), trace.IDFromContext(ctx))
	}()
	if !span.TraceID().IsZero() {
		w.Header().Set("X-Cati-Trace-Id", span.TraceID().String())
	}

	image, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			code = http.StatusRequestEntityTooLarge
			writeJSON(w, code, serve.ErrorResponse{Error: fmt.Sprintf("image exceeds %d-byte limit", rt.cfg.MaxBody)})
			return
		}
		code = http.StatusBadRequest
		writeJSON(w, code, serve.ErrorResponse{Error: "reading request body: " + err.Error()})
		return
	}
	if len(image) == 0 {
		code = http.StatusBadRequest
		writeJSON(w, code, serve.ErrorResponse{Error: "empty request body (expected a raw ELF image)"})
		return
	}

	sum := sha256.Sum256(image)
	span.SetAttr(trace.Int("image_bytes", len(image)),
		trace.String("sha256", hex.EncodeToString(sum[:8])))
	out := rt.route(ctx, sum, image)
	if out.err != nil {
		span.SetError(out.err)
		if r.Context().Err() != nil {
			code = 499 // client went away; nothing to write
			return
		}
		code = http.StatusBadGateway
		writeJSON(w, code, serve.ErrorResponse{Error: "fleet: all replicas failed: " + out.err.Error()})
		return
	}
	code = out.code
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if out.model != "" {
		w.Header().Set("X-Cati-Model", out.model)
	}
	if out.m != nil {
		w.Header().Set("X-Cati-Replica", out.m.url)
	} else {
		w.Header().Set("X-Cati-Replica", "local")
	}
	if out.fill {
		w.Header().Set("X-Cati-Fill", "peer")
		span.SetAttr(trace.Bool("peer_fill", true))
	}
	if out.m != nil {
		span.SetAttr(trace.String("replica", out.m.url))
	}
	w.WriteHeader(out.code)
	w.Write(out.body)
}

// plan computes the attempt sequence for a key: the healthiest owner
// first (repeated for its retry budget), then the failover candidates
// along the ring. Three passes relax the health gate so the router
// degrades instead of refusing: breaker-aware → membership-only →
// everyone (a desperation pass for the all-ejected case, where probes
// may be wrong or mid-recovery).
func (rt *Router) plan(key uint64) []*member {
	up := func(i int) bool { return rt.members[i].up.Load() }
	upClosed := func(i int) bool { return up(i) && !rt.members[i].br.open() }
	cand := rt.ring.candidates(key, upClosed, -1)
	if len(cand) == 0 {
		cand = rt.ring.candidates(key, up, -1)
	}
	if len(cand) == 0 {
		cand = rt.ring.candidates(key, nil, -1)
	}
	seq := make([]*member, 0, len(cand)+rt.cfg.OwnerRetries)
	for i := 0; i <= rt.cfg.OwnerRetries && len(cand) > 0; i++ {
		seq = append(seq, rt.members[cand[0]])
	}
	for _, c := range cand[1:] {
		seq = append(seq, rt.members[c])
	}
	return seq
}

// fillSources picks the peers worth probing for a warm cached result
// before target computes: the displaced home shard (up, but breaker-open
// or hedged around), or — when the home itself just rejoined cold — the
// ring successor that covered its range during the ejection.
func (rt *Router) fillSources(key uint64, target *member) []*member {
	home := rt.ring.home(key)
	if home < 0 {
		return nil
	}
	hm := rt.members[home]
	if target != hm {
		if hm.up.Load() {
			return []*member{hm}
		}
		return nil
	}
	if hm.recentlyRejoined(rt.cfg.FillGrace) {
		up := func(i int) bool { return i != home && rt.members[i].up.Load() }
		if succ := rt.ring.candidates(key, up, 2); len(succ) > 1 {
			// candidates() skipped the home (it fails up()), so succ[1] is
			// the second distinct replica clockwise — the one that owned
			// this range while home was out. succ[0] is... also a
			// successor; probe the nearest one.
			return []*member{rt.members[succ[0]]}
		} else if len(succ) == 1 {
			return []*member{rt.members[succ[0]]}
		}
	}
	return nil
}

// route runs one request down the degradation ladder. A returned fwdOut
// with err != nil means every rung failed.
//
// The request gets Rounds full passes over its candidate plan with a
// growing jittered backoff between them: a single pass can exhaust in
// tens of milliseconds when a fault transition severs in-flight
// connections while the survivors are momentarily shedding (429), and
// the whole point of the router is that such a blip never reaches the
// client. The plan is recomputed each round, so a round that starts
// after an ejection or a breaker change routes with fresh knowledge.
func (rt *Router) route(ctx context.Context, sum [sha256.Size]byte, image []byte) fwdOut {
	key := binary.BigEndian.Uint64(sum[:8])
	var last fwdOut
	for round := 0; round < rt.cfg.Rounds; round++ {
		if ctx.Err() != nil {
			break
		}
		if round > 0 {
			if d := jitterExp(rt.cfg.Backoff, rt.cfg.MaxBackoff, 2*round); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return rt.finish(ctx, image, last)
				}
			}
		}
		out, settled := rt.runPlan(ctx, key, sum, image, round)
		if settled {
			return out
		}
		if out.err != nil || out.code != 0 {
			last = out
		}
	}
	return rt.finish(ctx, image, last)
}

// runPlan makes one pass over the candidate plan: launch, retry with
// backoff, hedge. settled=true means out answers the client; false
// means the pass exhausted (out is the last failure, possibly zero when
// nothing could even launch).
func (rt *Router) runPlan(ctx context.Context, key uint64, sum [sha256.Size]byte, image []byte, round int) (out fwdOut, settled bool) {
	ctx, span := trace.Start(ctx, "fleet.plan", trace.Int("round", round))
	defer func() {
		span.SetAttr(trace.Bool("settled", settled))
		span.SetError(out.err)
		span.End()
	}()
	seq := rt.plan(key)
	if len(seq) == 0 {
		return fwdOut{err: errors.New("no replicas configured")}, false
	}
	span.SetAttr(trace.Int("candidates", len(seq)),
		trace.String("owner", seq[0].url))

	if round == 0 {
		if fill, ok := rt.peerFill(ctx, rt.fillSources(key, seq[0]), sum); ok {
			return fill, true
		}
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in the losing hedge attempts
	results := make(chan fwdOut, len(seq))
	var lastLaunched *member
	pending, launched, hardFails := 0, 0, 0
	launch := func(m *member) {
		pending++
		lastLaunched = m
		go func() { results <- rt.forward(rctx, m, image, sum) }()
	}
	// nextAllowed consumes plan entries until one passes its breaker;
	// skip prevents hedging into the replica we are hedging around.
	nextAllowed := func(skip *member) *member {
		for launched < len(seq) {
			m := seq[launched]
			launched++
			if m == skip || !m.br.allow() {
				continue
			}
			return m
		}
		return nil
	}

	first := nextAllowed(nil)
	if first == nil {
		return fwdOut{err: errors.New("every replica's circuit breaker is open")}, false
	}
	launch(first)
	var hedgeC <-chan time.Time
	resetHedge := func() {
		hedgeC = nil
		if rt.cfg.HedgeAfter > 0 && launched < len(seq) {
			hedgeC = time.After(rt.cfg.HedgeAfter)
		}
	}
	resetHedge()

	var last fwdOut
	for {
		select {
		case res := <-results:
			pending--
			if res.final() {
				return res, true
			}
			last = res
			hardFails++
			m := nextAllowed(nil)
			if m == nil {
				if pending == 0 {
					return last, false
				}
				hedgeC = nil // nothing left to hedge to; wait for stragglers
				continue
			}
			// Jittered exponential backoff before re-offering the request,
			// still listening: a straggling earlier attempt may settle it.
			if d := jitterExp(rt.cfg.Backoff, rt.cfg.MaxBackoff, hardFails); d > 0 {
				timer := time.NewTimer(d)
			backoff:
				for {
					select {
					case res2 := <-results:
						pending--
						if res2.final() {
							timer.Stop()
							return res2, true
						}
						last = res2
					case <-timer.C:
						break backoff
					case <-rctx.Done():
						timer.Stop()
						return last, false
					}
				}
			}
			mRetries.Inc()
			rt.retries.Add(1)
			span.Event("retry", trace.String("replica", m.url),
				trace.Int("hard_fails", hardFails))
			launch(m)
			resetHedge()
		case <-hedgeC:
			m := nextAllowed(lastLaunched)
			if m == nil {
				hedgeC = nil
				continue
			}
			mHedges.Inc()
			rt.hedges.Add(1)
			span.Event("hedge", trace.String("replica", m.url))
			launch(m)
			resetHedge()
		case <-rctx.Done():
			return last, false
		}
	}
}

// forward sends the image to one replica and classifies the outcome for
// the breaker: transport errors, truncated bodies, 429 and 5xx are
// failures; everything else (success or deterministic 4xx) is healthy
// service. A forward the router cancelled itself — a losing hedge reeled
// in, or a client gone — says nothing about the replica and is not
// counted either way.
func (rt *Router) forward(ctx context.Context, m *member, image []byte, sum [sha256.Size]byte) fwdOut {
	ctx, span := trace.Start(ctx, "fleet.forward", trace.String("replica", m.url))
	out := rt.forwardSpan(ctx, m, image, sum)
	span.SetError(out.err)
	if out.code != 0 {
		span.SetAttr(trace.Int("code", out.code))
	}
	span.End()
	return out
}

func (rt *Router) forwardSpan(ctx context.Context, m *member, image []byte, sum [sha256.Size]byte) fwdOut {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.url+"/v1/infer", bytes.NewReader(image))
	if err != nil {
		return fwdOut{m: m, err: err}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	// Inference is a pure function of image and model, so the forward is
	// idempotent. Saying so lets net/http's Transport resend it when a
	// reused keep-alive connection turns out to be dead.
	req.Header.Set("Idempotency-Key", hex.EncodeToString(sum[:]))
	trace.Inject(ctx, req.Header)
	failed := func() {
		if ctx.Err() != nil {
			m.br.abandon()
			return
		}
		m.br.report(false)
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		failed()
		return fwdOut{m: m, err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		// Truncated mid-body: the response cannot be trusted.
		failed()
		return fwdOut{m: m, err: fmt.Errorf("reading %s response: %w", m.url, err)}
	}
	out := fwdOut{m: m, code: resp.StatusCode, body: body, model: resp.Header.Get("X-Cati-Model")}
	m.br.report(out.final())
	return out
}

// peerFill probes warm peers' result caches before computing, inside a
// hard budget. Every failure mode — timeout, refused connection, 404,
// garbage — degrades silently to the compute path.
func (rt *Router) peerFill(ctx context.Context, sources []*member, sum [sha256.Size]byte) (out fwdOut, ok bool) {
	if len(sources) == 0 {
		return fwdOut{}, false
	}
	ctx, span := trace.Start(ctx, "fleet.fill", trace.Int("sources", len(sources)))
	defer func() {
		span.SetAttr(trace.Bool("hit", ok))
		span.End()
	}()
	shaHex := hex.EncodeToString(sum[:])
	for _, src := range sources {
		cctx, cancel := context.WithTimeout(ctx, rt.cfg.FillTimeout)
		req, err := http.NewRequestWithContext(cctx, http.MethodGet, src.url+"/v1/cache/"+shaHex, nil)
		if err != nil {
			cancel()
			continue
		}
		trace.Inject(cctx, req.Header)
		resp, err := rt.cfg.Client.Do(req)
		if err != nil {
			cancel()
			countFill("error")
			span.Event("fill-error", trace.String("replica", src.url))
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		switch {
		case rerr != nil:
			countFill("error")
		case resp.StatusCode == http.StatusOK:
			countFill("hit")
			rt.fills.Add(1)
			return fwdOut{m: src, code: http.StatusOK, body: body,
				model: resp.Header.Get("X-Cati-Model"), fill: true}, true
		case resp.StatusCode == http.StatusNotFound:
			countFill("miss")
		default:
			countFill("error")
		}
	}
	return fwdOut{}, false
}

// finish is the ladder's last rung: compute locally on the fallback
// model, or surface the failure as-is.
func (rt *Router) finish(ctx context.Context, image []byte, last fwdOut) fwdOut {
	if rt.localInfer == nil || ctx.Err() != nil {
		if last.err == nil {
			if last.code != 0 {
				// The last word was a replica's 429/5xx response; wrap it
				// so the client sees a fleet-level failure, not a
				// misleading passthrough.
				last.err = fmt.Errorf("last replica answered %d", last.code)
			} else {
				last.err = errors.New("no attempt completed")
			}
		}
		return last
	}
	mFallbacks.Inc()
	rt.fallbacks.Add(1)
	vars, fp, err := rt.localInfer(ctx, image)
	if err != nil {
		return fwdOut{err: fmt.Errorf("local fallback: %w", err)}
	}
	recs := make([]serve.VarRecord, len(vars))
	for i, v := range vars {
		recs[i] = serve.VarRecord{FuncLow: v.FuncLow, Slot: v.Slot, Global: v.Global,
			Size: v.Size, NumVUCs: v.NumVUCs, Class: v.Class.String()}
	}
	body, err := json.Marshal(serve.InferResponse{
		Model: fp, Cached: false, NumVars: len(recs), Vars: recs,
	})
	if err != nil {
		return fwdOut{err: err}
	}
	return fwdOut{code: http.StatusOK, body: body, model: fp}
}

// jitterExp is the failure-driven retry spacing: base×2^(n-1) capped at
// max, scaled into [0.5, 1.5). Negative base disables.
func jitterExp(base, max time.Duration, n int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + rand.N(d)
}

// writeJSON writes one JSON body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
