package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestPercentileMs(t *testing.T) {
	if p := percentileMs(nil, 0.5); p != 0 {
		t.Fatalf("empty sample: %v", p)
	}
	sorted := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		4 * time.Millisecond, 100 * time.Millisecond,
	}
	if p := percentileMs(sorted, 0.50); p != 3 {
		t.Fatalf("p50 = %v, want 3", p)
	}
	if p := percentileMs(sorted, 0.99); p != 100 {
		t.Fatalf("p99 = %v, want 100", p)
	}
}

// TestRunLoadgen drives the closed loop against a stub inference
// endpoint, checking the aggregate bookkeeping (request, error and
// cache-hit counts, non-zero percentiles) without paying for a model.
func TestRunLoadgen(t *testing.T) {
	var hits atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n%5 == 0 { // every 5th request sheds, like a saturated server
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "shed"})
			return
		}
		json.NewEncoder(w).Encode(serve.InferResponse{Model: "cafe", Cached: n%2 == 0})
	}))
	defer stub.Close()

	images := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	rec, err := runLoadgen(context.Background(), stub.URL, images, 4, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rec.Errors == 0 {
		t.Fatal("shed responses not counted as errors")
	}
	if rec.Cached == 0 {
		t.Fatal("cache hits not counted")
	}
	if rec.RPS <= 0 || rec.P50Ms <= 0 || rec.P95Ms < rec.P50Ms || rec.P99Ms < rec.P95Ms {
		t.Fatalf("implausible aggregate: %+v", rec)
	}
	// Requests cut off mid-flight by the clock are uncounted by design,
	// so the server may have seen up to `concurrency` more than we did.
	if saw := int(hits.Load()); rec.Requests > saw || rec.Requests < saw-4 {
		t.Fatalf("counted %d requests, server saw %d", rec.Requests, saw)
	}

	if _, err := runLoadgen(context.Background(), stub.URL, nil, 1, time.Millisecond); err == nil {
		t.Fatal("no images should be an error")
	}
}
