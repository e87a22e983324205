package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/elfx"
)

// TestReadyzGatesOnQueue: readyz answers 200 when idle and 503 once the
// admission queue reaches the watermark, while healthz stays 200
// throughout — the liveness/readiness distinction load balancers key on.
// /v1/models reports the same pair.
func TestReadyzGatesOnQueue(t *testing.T) {
	fixture(t)
	s := startServer(t, Config{
		ModelPath:   modelFile(t, fixA),
		MaxInFlight: 1, MaxQueue: 2, ReadyWatermark: 1,
		QueueWait: 5 * time.Second, CacheSize: -1, WatchInterval: -1,
	})
	get := func(path string) int {
		resp, err := http.Get("http://" + s.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/readyz"); code != http.StatusOK {
		t.Fatalf("idle readyz = %d, want 200", code)
	}

	// Wedge the single execution slot, then queue one more request: queue
	// depth 1 == watermark → not ready.
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.infer = func(context.Context, *Model, *elfx.Binary) core.BinaryResult {
		entered <- struct{}{}
		<-gate
		return core.BinaryResult{}
	}
	defer close(gate)
	fire := func() {
		go func() {
			resp, err := http.Post("http://"+s.Addr+"/v1/infer", "application/octet-stream", bytes.NewReader(fixImages[0]))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	fire()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached inference")
	}
	fire()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queued() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if code := get("/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("queued-up readyz = %d, want 503", code)
	}
	if code := get("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while not ready = %d, want 200", code)
	}
	resp, err := http.Get("http://" + s.Addr + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var mr ModelsResponse
	err = json.NewDecoder(resp.Body).Decode(&mr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !mr.Health.Live || mr.Health.Ready || mr.Health.Reason == "" {
		t.Fatalf("models health = %+v, want live, not ready, with reason", mr.Health)
	}
}

// TestRetryAfterDerived: the 429 hint scales with queue depth × observed
// latency instead of parroting the configured constant, and clamps to
// the configured ceiling.
func TestRetryAfterDerived(t *testing.T) {
	fixture(t)
	s := startServer(t, Config{
		ModelPath:   modelFile(t, fixA),
		MaxInFlight: 1, MaxQueue: 2,
		QueueWait: 10 * time.Second, RetryAfter: time.Second, MaxRetryAfter: 7 * time.Second,
		CacheSize: -1, WatchInterval: -1,
	})
	// Seed the estimator deterministically: one observation IS the EWMA.
	s.observeLatency(2 * time.Second)

	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.infer = func(context.Context, *Model, *elfx.Binary) core.BinaryResult {
		entered <- struct{}{}
		<-gate
		return core.BinaryResult{}
	}
	defer close(gate)
	fire := func() {
		go func() {
			resp, err := http.Post("http://"+s.Addr+"/v1/infer", "application/octet-stream", bytes.NewReader(fixImages[0]))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	fire() // takes the slot
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached inference")
	}
	fire() // queue depth 1
	fire() // queue depth 2 (queue full)
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queued() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled (depth %d)", s.adm.queued())
		}
		time.Sleep(time.Millisecond)
	}

	// Overflow request: (queued 2 + 1) × 2s / 1 lane = 6s expected drain.
	resp, err := http.Post("http://"+s.Addr+"/v1/infer", "application/octet-stream", bytes.NewReader(fixImages[1]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow = %d, want 429", resp.StatusCode)
	}
	got, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer", resp.Header.Get("Retry-After"))
	}
	if got != 6 {
		t.Fatalf("Retry-After = %d, want 6 (3 ahead × 2s over 1 lane)", got)
	}

	// A much slower observed latency must clamp at MaxRetryAfter.
	s.observeLatency(100 * time.Second) // EWMA jumps to ~21.6s
	if got := s.retryAfterSeconds(); got != 7 {
		t.Fatalf("clamped Retry-After = %d, want 7 (MaxRetryAfter)", got)
	}
}

// TestRetryAfterFloor: before any latency observation the hint falls back
// to the configured minimum.
func TestRetryAfterFloor(t *testing.T) {
	fixture(t)
	s := startServer(t, Config{
		ModelPath: modelFile(t, fixA), RetryAfter: 3 * time.Second,
		CacheSize: -1, WatchInterval: -1,
	})
	if got := s.retryAfterSeconds(); got != 3 {
		t.Fatalf("unseeded Retry-After = %d, want the 3s floor", got)
	}
}

// TestCacheFillEndpoint: after a computed request, GET /v1/cache/{sha}
// returns the identical result marked cached; unknown hashes 404 and
// malformed hashes 400. This is the contract the fleet router's peer
// cache fill rides on.
func TestCacheFillEndpoint(t *testing.T) {
	fixture(t)
	s := startServer(t, Config{ModelPath: modelFile(t, fixA), CacheSize: 64, WatchInterval: -1})
	img := fixImages[3]

	resp, body := postInfer(t, s.Addr, img)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer = %d: %s", resp.StatusCode, body)
	}
	var computed InferResponse
	if err := json.Unmarshal(body, &computed); err != nil {
		t.Fatal(err)
	}

	sum := sha256.Sum256(img)
	cresp, err := http.Get("http://" + s.Addr + "/v1/cache/" + hex.EncodeToString(sum[:]))
	if err != nil {
		t.Fatal(err)
	}
	cbody, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cache get = %d: %s", cresp.StatusCode, cbody)
	}
	var filled InferResponse
	if err := json.Unmarshal(cbody, &filled); err != nil {
		t.Fatal(err)
	}
	if !filled.Cached {
		t.Fatal("cache endpoint response not marked cached")
	}
	if filled.Model != computed.Model || !sameRecords(filled.Vars, computed.Vars) {
		t.Fatal("cache endpoint returned a different result than the computed one")
	}

	// Unknown (never submitted) image: 404, not an empty 200.
	other := sha256.Sum256([]byte("never submitted"))
	nresp, err := http.Get("http://" + s.Addr + "/v1/cache/" + hex.EncodeToString(other[:]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, nresp.Body)
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sha = %d, want 404", nresp.StatusCode)
	}

	// Malformed hash: 400.
	bresp, err := http.Get("http://" + s.Addr + "/v1/cache/nothex")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed sha = %d, want 400", bresp.StatusCode)
	}
}

// TestBatcherPanicContained: an inference seam that panics outside
// core's per-binary containment yields a 500 for its request — and the
// daemon keeps serving; the next request on a healed seam succeeds.
func TestBatcherPanicContained(t *testing.T) {
	fixture(t)
	s := startServer(t, Config{
		ModelPath: modelFile(t, fixA),
		CacheSize: -1, WatchInterval: -1,
	})
	real := s.infer
	s.infer = func(context.Context, *Model, *elfx.Binary) core.BinaryResult {
		panic("synthetic inference failure")
	}

	resp, body := postInfer(t, s.Addr, fixImages[0])
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked inference = %d, want 500: %s", resp.StatusCode, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("500 body not an ErrorResponse: %v %s", err, body)
	}

	// The handler released its admission slot: a healed seam serves.
	s.infer = real
	resp, body = postInfer(t, s.Addr, fixImages[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request = %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestErrBatchPanicIs pins the sentinel wrapping so the router can rely
// on errors.Is across the wire boundary being encoded as a 500.
func TestErrBatchPanicIs(t *testing.T) {
	fixture(t)
	s, err := New(Config{ModelPath: modelFile(t, fixA), WatchInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	s.infer = func(context.Context, *Model, *elfx.Binary) core.BinaryResult {
		panic("boom")
	}
	res, m := s.inferActive(context.Background(), nil)
	if !errors.Is(res.Err, ErrBatchPanic) {
		t.Fatalf("want ErrBatchPanic, got %v", res.Err)
	}
	if m == nil || m.Fingerprint != fpA {
		t.Fatalf("panicked call reports model %v, want the active snapshot %q", m, fpA)
	}
}
