package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// traceRecord is one line of BENCH_trace.json. The load points reuse the
// serve-sweep shape (RPS, percentiles); the summary row carries the
// disabled-path cost model and the verdict the Makefile gate rides on.
type traceRecord struct {
	Name        string  `json:"name"`
	Concurrency int     `json:"concurrency,omitempty"`
	DurationS   float64 `json:"duration_s,omitempty"`
	Requests    int     `json:"requests,omitempty"`
	Errors      int     `json:"errors,omitempty"`
	RPS         float64 `json:"rps,omitempty"`
	P50Ms       float64 `json:"p50_ms,omitempty"`
	P95Ms       float64 `json:"p95_ms,omitempty"`
	Tracing     bool    `json:"tracing"`

	// Summary-row fields: the measured cost of one fully-disabled span
	// operation (Start + attrs + event + End against a nil collector),
	// how many spans one uncached /v1/infer request creates (counted
	// from a real trace, not assumed), and the resulting worst-case
	// disabled-path overhead against the measured p50.
	DisabledNsPerSpan   float64 `json:"disabled_ns_per_span,omitempty"`
	SpansPerRequest     int     `json:"spans_per_request,omitempty"`
	DisabledOverheadPct float64 `json:"disabled_overhead_pct,omitempty"`
	EnabledOverheadPct  float64 `json:"enabled_overhead_pct,omitempty"`
	LimitPct            float64 `json:"limit_pct,omitempty"`
}

// disabledSpanNs measures the per-span cost of the instrumentation when
// tracing is off: Start returns a nil span whose methods are no-ops, so
// this is the price every request pays whether or not anyone is looking.
func disabledSpanNs() float64 {
	prev := trace.Default()
	trace.SetDefault(nil)
	defer trace.SetDefault(prev)
	ctx := context.Background()
	const iters = 1_000_000
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		sctx, span := trace.Start(ctx, "bench")
		span.SetAttr(trace.Int("i", i))
		span.Event("event")
		span.End()
		_ = trace.IDFromContext(sctx)
	}
	return float64(time.Since(t0)) / iters
}

// countRequestSpans sends one uncached request to a tracing-enabled
// replica and counts the spans its trace records, retrying until the
// deferred request-span lands in the collector.
func countRequestSpans(addr string, image []byte) (int, error) {
	resp, err := http.Post("http://"+addr+"/v1/infer", "application/octet-stream", bytes.NewReader(image))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("span-count request answered %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Cati-Trace-Id")
	if id == "" {
		return 0, fmt.Errorf("tracing-enabled replica returned no X-Cati-Trace-Id")
	}
	var last int
	for attempt := 0; attempt < 20; attempt++ {
		time.Sleep(50 * time.Millisecond)
		tresp, err := http.Get("http://" + addr + "/v1/trace/" + id)
		if err != nil {
			return 0, err
		}
		var body struct {
			Spans []trace.SpanRecord `json:"spans"`
		}
		err = json.NewDecoder(tresp.Body).Decode(&body)
		io.Copy(io.Discard, tresp.Body)
		tresp.Body.Close()
		if err != nil {
			return 0, err
		}
		// Stable across two reads with the root present → complete.
		if len(body.Spans) > 0 && len(body.Spans) == last {
			return last, nil
		}
		last = len(body.Spans)
	}
	return 0, fmt.Errorf("trace %s never settled (%d spans)", id, last)
}

// runTraceBench is `catibench -trace-bench FILE`: prove that the tracing
// instrumentation costs nothing when disabled. It measures the serve path
// twice under identical closed-loop load — collector absent vs installed —
// plus a microbenchmark of the disabled span fast path, and fails unless
// the disabled-path cost stays under limitPct of request latency.
func runTraceBench(ctx context.Context, log *slog.Logger, path string, concurrency int, duration time.Duration, limitPct float64) error {
	model, cleanup, err := trainLoadgenModel(log)
	if err != nil {
		return err
	}
	defer cleanup()
	images, err := loadgenImages(6)
	if err != nil {
		return err
	}

	nsPerSpan := disabledSpanNs()
	log.Info("disabled span fast path", "ns_per_span", fmt.Sprintf("%.1f", nsPerSpan))

	// Cache off so every request runs the full pipeline (a warm cache
	// would short-circuit the five stage spans and flatter the numbers).
	mkConfig := func() serve.Config {
		return serve.Config{
			ModelPath: model, WatchInterval: -1, Log: log, CacheSize: -1,
			MaxInFlight: 2 * concurrency, MaxQueue: 2 * concurrency,
		}
	}
	runPoint := func(name string, tracing bool) (traceRecord, int, error) {
		if tracing {
			trace.SetDefault(trace.NewCollector(trace.Config{MaxTraces: 4096}))
		} else {
			trace.SetDefault(nil)
		}
		defer trace.SetDefault(nil)
		srv, err := serve.New(mkConfig())
		if err != nil {
			return traceRecord{}, 0, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return traceRecord{}, 0, err
		}
		defer srv.Close()
		spans := 0
		if tracing {
			if spans, err = countRequestSpans(srv.Addr, images[0]); err != nil {
				return traceRecord{}, 0, err
			}
		}
		rec, err := runLoadgen(ctx, "http://"+srv.Addr+"/v1/infer", images, concurrency, duration)
		if err != nil {
			return traceRecord{}, 0, err
		}
		log.Info("trace bench point", "name", name, "rps", fmt.Sprintf("%.1f", rec.RPS),
			"p50_ms", fmt.Sprintf("%.2f", rec.P50Ms), "errors", rec.Errors)
		return traceRecord{
			Name: name, Tracing: tracing,
			Concurrency: rec.Concurrency, DurationS: rec.DurationS,
			Requests: rec.Requests, Errors: rec.Errors,
			RPS: rec.RPS, P50Ms: rec.P50Ms, P95Ms: rec.P95Ms,
		}, spans, nil
	}

	off, _, err := runPoint("trace/off", false)
	if err != nil {
		return err
	}
	on, spansPerReq, err := runPoint("trace/on", true)
	if err != nil {
		return err
	}

	// Disabled-path overhead: what the nil-span instrumentation costs one
	// request, as a fraction of that request's measured latency. This is
	// load-independent (the microbenchmark is single-threaded and exact),
	// so the gate does not flake with the sweep window.
	if off.P50Ms <= 0 {
		return fmt.Errorf("trace bench: no successful requests in the trace-off run")
	}
	disabledPct := float64(spansPerReq) * nsPerSpan / (off.P50Ms * 1e6) * 100
	enabledPct := 0.0
	if off.RPS > 0 {
		enabledPct = (off.RPS - on.RPS) / off.RPS * 100
	}
	summary := traceRecord{
		Name:                "trace/summary",
		DisabledNsPerSpan:   nsPerSpan,
		SpansPerRequest:     spansPerReq,
		DisabledOverheadPct: disabledPct,
		EnabledOverheadPct:  enabledPct,
		LimitPct:            limitPct,
	}
	log.Info("trace overhead",
		"spans_per_request", spansPerReq,
		"disabled_pct", fmt.Sprintf("%.4f", disabledPct),
		"enabled_pct", fmt.Sprintf("%.2f", enabledPct),
		"limit_pct", limitPct)

	out, err := json.MarshalIndent([]traceRecord{off, on, summary}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	log.Info("wrote trace bench records", "path", path)

	if disabledPct >= limitPct {
		return fmt.Errorf("tracing-disabled overhead %.4f%% exceeds the %.1f%% budget (%d spans × %.1fns against p50 %.2fms)",
			disabledPct, limitPct, spansPerReq, nsPerSpan, off.P50Ms)
	}
	return nil
}
