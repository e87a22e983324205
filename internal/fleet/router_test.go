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
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// fakeReplica implements just enough of the catiserve surface for
// router unit tests: /v1/infer (canned result), /v1/readyz, and
// /v1/cache/{sha}. No model, no ELF parsing — the router treats
// replicas as opaque HTTP, so the tests can too.
type fakeReplica struct {
	name   string
	infers atomic.Uint64
	// delayNS stalls each inference (hedge tests); failCode, when >0, is
	// answered instead of a result (failure tests).
	delayNS  atomic.Int64
	failCode atomic.Int64

	mu    sync.Mutex
	cache map[string][]byte // sha256 hex → response body

	srv *httptest.Server
}

func (f *fakeReplica) body(cached bool) []byte {
	b, _ := json.Marshal(serve.InferResponse{Model: "fake-" + f.name, Cached: cached})
	return b
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{name: name, cache: make(map[string][]byte)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/infer", func(w http.ResponseWriter, r *http.Request) {
		f.infers.Add(1)
		if d := f.delayNS.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		if code := f.failCode.Load(); code > 0 {
			http.Error(w, "injected failure", int(code))
			return
		}
		image, _ := io.ReadAll(r.Body)
		sum := sha256.Sum256(image)
		body := f.body(false)
		f.mu.Lock()
		f.cache[hex.EncodeToString(sum[:])] = body
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("X-Cati-Model", "fake-"+f.name)
		w.Write(body)
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("GET /v1/cache/{sha}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		body, ok := f.cache[r.PathValue("sha")]
		f.mu.Unlock()
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("X-Cati-Model", "fake-"+f.name)
		w.Write(body)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// quietLog keeps expected ejection warnings out of -v noise.
func quietLog(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, &slog.HandlerOptions{Level: slog.LevelError}))
}

func startRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = quietLog(t)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

func routePost(t *testing.T, rt *Router, image []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+rt.Addr+"/v1/infer", "application/octet-stream", bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func imageKey(image []byte) (uint64, string) {
	sum := sha256.Sum256(image)
	return binary.BigEndian.Uint64(sum[:8]), hex.EncodeToString(sum[:])
}

// The same image must always land on the same replica (cache affinity),
// and distinct images must spread across the fleet.
func TestRouterAffinity(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	rt := startRouter(t, Config{
		Replicas:      []string{reps[0].srv.URL, reps[1].srv.URL, reps[2].srv.URL},
		ProbeInterval: 20 * time.Millisecond,
	})

	hit := map[string]bool{}
	for i := 0; i < 24; i++ {
		image := []byte(fmt.Sprintf("image-%d", i))
		var first string
		for round := 0; round < 2; round++ {
			resp, body := routePost(t, rt, image)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("image %d round %d: status %d: %s", i, round, resp.StatusCode, body)
			}
			rep := resp.Header.Get("X-Cati-Replica")
			if round == 0 {
				first = rep
				hit[rep] = true
			} else if rep != first {
				t.Fatalf("image %d bounced %s -> %s: affinity broken", i, first, rep)
			}
		}
	}
	if len(hit) < 2 {
		t.Fatalf("24 distinct images all routed to %d replica(s): ring not spreading", len(hit))
	}
}

// A transiently failing owner is retried (with backoff) before the
// request moves on.
func TestRouterRetriesOwner(t *testing.T) {
	rep := newFakeReplica(t, "solo")
	var calls atomic.Int64
	// Fail the first two attempts at the HTTP layer via failCode, healing
	// from the replica's own handler is not possible — flip it here.
	rep.failCode.Store(http.StatusInternalServerError)
	go func() {
		for calls.Load() == 0 {
			time.Sleep(time.Millisecond)
			if rep.infers.Load() >= 2 {
				rep.failCode.Store(0)
				calls.Store(1)
			}
		}
	}()
	rt := startRouter(t, Config{
		Replicas:      []string{rep.srv.URL},
		ProbeInterval: 50 * time.Millisecond,
		OwnerRetries:  4,
		Backoff:       time.Millisecond,
		HedgeAfter:    -1,
	})
	resp, body := routePost(t, rt, []byte("flaky-owner"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if n := rep.infers.Load(); n < 3 {
		t.Fatalf("replica saw %d attempts, want >= 3 (two failures + success)", n)
	}
	if rt.retries.Load() < 2 {
		t.Fatalf("router counted %d retries, want >= 2", rt.retries.Load())
	}
}

// When the owner hard-fails persistently, the request fails over to the
// next replica on the ring and still succeeds.
func TestRouterFailoverToSuccessor(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	rt := startRouter(t, Config{
		Replicas:      []string{reps[0].srv.URL, reps[1].srv.URL, reps[2].srv.URL},
		ProbeInterval: 50 * time.Millisecond,
		Backoff:       time.Millisecond,
		HedgeAfter:    -1,
	})
	image := []byte("failover-me")
	resp, _ := routePost(t, rt, image)
	owner := resp.Header.Get("X-Cati-Replica")
	for _, r := range reps {
		if r.srv.URL == owner {
			r.failCode.Store(http.StatusInternalServerError)
		}
	}
	// A fresh image that hashes to the same replica would be fragile;
	// reuse the same image — its cached result lives on the failing
	// owner, unreachable, so the request must be recomputed elsewhere.
	resp, body := routePost(t, rt, image)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cati-Replica"); got == owner {
		t.Fatalf("request answered by the failing owner %s", got)
	}
}

// A slow owner is hedged: past HedgeAfter the request races the ring
// successor and the fast answer wins well before the owner finishes.
func TestRouterHedge(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	rt := startRouter(t, Config{
		Replicas:      []string{reps[0].srv.URL, reps[1].srv.URL, reps[2].srv.URL},
		ProbeInterval: 50 * time.Millisecond,
		HedgeAfter:    20 * time.Millisecond,
	})
	image := []byte("hedge-me")
	resp, _ := routePost(t, rt, image)
	owner := resp.Header.Get("X-Cati-Replica")
	var ownerRep *fakeReplica
	for _, r := range reps {
		if r.srv.URL == owner {
			ownerRep = r
		}
	}
	ownerRep.delayNS.Store(int64(2 * time.Second))
	// New image content that still owns to the same replica is hard to
	// construct; instead evict affinity concerns by using a fresh image
	// and slowing whichever replica owns it.
	fresh := []byte("hedge-me-2")
	resp, _ = routePost(t, rt, fresh)
	freshOwner := resp.Header.Get("X-Cati-Replica")
	for _, r := range reps {
		if r.srv.URL == freshOwner {
			r.delayNS.Store(int64(2 * time.Second))
		}
	}
	start := time.Now()
	resp, body := routePost(t, rt, fresh)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cati-Replica"); got == freshOwner {
		t.Fatalf("slow owner %s still answered; hedge did not race", got)
	}
	if elapsed > time.Second {
		t.Fatalf("hedged request took %v — waited out the slow owner", elapsed)
	}
	if rt.hedges.Load() == 0 {
		t.Fatal("hedge counter not incremented")
	}
}

// With the home shard's breaker open, a displaced request first probes
// the home's (reachable, warm) cache and serves the hit.
func TestRouterPeerFillDisplaced(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	rt := startRouter(t, Config{
		Replicas:      []string{reps[0].srv.URL, reps[1].srv.URL, reps[2].srv.URL},
		ProbeInterval: 50 * time.Millisecond,
	})
	image := []byte("fill-displaced")
	key, shaHex := imageKey(image)
	home := rt.ring.home(key)
	hm := rt.members[home]
	// Warm the home's cache, then open its breaker so routing displaces.
	homeRep := reps[home]
	homeRep.mu.Lock()
	homeRep.cache[shaHex] = homeRep.body(true)
	homeRep.mu.Unlock()
	for i := 0; i < rt.cfg.BreakerThreshold; i++ {
		hm.br.report(false)
	}
	resp, body := routePost(t, rt, image)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cati-Fill") != "peer" {
		t.Fatalf("expected a peer cache fill; replica=%s headers=%v",
			resp.Header.Get("X-Cati-Replica"), resp.Header)
	}
	if got := resp.Header.Get("X-Cati-Replica"); got != hm.url {
		t.Fatalf("fill came from %s, want the warm home %s", got, hm.url)
	}
	if rt.fills.Load() != 1 {
		t.Fatalf("fills = %d, want 1", rt.fills.Load())
	}
	var ir serve.InferResponse
	if err := json.Unmarshal(body, &ir); err != nil || !ir.Cached {
		t.Fatalf("fill body not the cached entry: %s (err %v)", body, err)
	}
}

// When the home just rejoined (cold cache), its requests first probe
// the ring successor that covered the range during the ejection.
func TestRouterPeerFillColdRejoin(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	rt := startRouter(t, Config{
		Replicas:      []string{reps[0].srv.URL, reps[1].srv.URL, reps[2].srv.URL},
		ProbeInterval: 50 * time.Millisecond,
		FillGrace:     time.Minute,
	})
	image := []byte("fill-cold-rejoin")
	key, shaHex := imageKey(image)
	home := rt.ring.home(key)
	// The successor served this image while home was out: warm its cache.
	succ := rt.ring.candidates(key, func(i int) bool { return i != home }, 1)[0]
	succRep := reps[succ]
	succRep.mu.Lock()
	succRep.cache[shaHex] = succRep.body(true)
	succRep.mu.Unlock()
	// Home is back, cold.
	rt.members[home].rejoinedAt.Store(time.Now().UnixNano())

	resp, body := routePost(t, rt, image)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cati-Fill") != "peer" {
		t.Fatalf("expected a peer fill from the covering successor; got replica %s",
			resp.Header.Get("X-Cati-Replica"))
	}
	if got := rt.members[succ].url; resp.Header.Get("X-Cati-Replica") != got {
		t.Fatalf("fill from %s, want successor %s", resp.Header.Get("X-Cati-Replica"), got)
	}
}

// A peer-fill error must degrade silently to a normal compute, never
// surface to the client.
func TestRouterPeerFillErrorDegrades(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	rt := startRouter(t, Config{
		Replicas:      []string{reps[0].srv.URL, reps[1].srv.URL, reps[2].srv.URL},
		ProbeInterval: 50 * time.Millisecond,
		FillGrace:     time.Minute,
	})
	image := []byte("fill-error-degrades")
	key, _ := imageKey(image)
	home := rt.ring.home(key)
	rt.members[home].rejoinedAt.Store(time.Now().UnixNano()) // cold: will probe successor (a miss)
	resp, body := routePost(t, rt, image)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fill miss must fall through to compute; status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cati-Fill") != "" {
		t.Fatal("miss reported as a fill")
	}
}

// Deterministic 4xx answers pass through without burning retries — the
// same bytes would fail identically everywhere.
func TestRouter4xxPassthrough(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b")}
	for _, r := range reps {
		r.failCode.Store(http.StatusBadRequest)
	}
	rt := startRouter(t, Config{
		Replicas:      []string{reps[0].srv.URL, reps[1].srv.URL},
		ProbeInterval: 50 * time.Millisecond,
		Backoff:       time.Millisecond,
	})
	resp, _ := routePost(t, rt, []byte("not-an-elf"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 passthrough", resp.StatusCode)
	}
	if total := reps[0].infers.Load() + reps[1].infers.Load(); total != 1 {
		t.Fatalf("4xx was retried: %d total attempts, want 1", total)
	}
}

// With every replica dead, a router with a fallback model computes
// locally instead of failing the client.
func TestRouterLocalFallback(t *testing.T) {
	rep := newFakeReplica(t, "doomed")
	rt := startRouter(t, Config{
		Replicas:      []string{rep.srv.URL},
		ProbeInterval: 20 * time.Millisecond,
		EjectAfter:    1,
		OwnerRetries:  0,
		Backoff:       time.Millisecond,
		HedgeAfter:    -1,
	})
	// Install the fallback seam in place of a real model.
	rt.localFP = "local-fallback-fp"
	rt.localInfer = func(_ context.Context, _ []byte) ([]core.InferredVar, string, error) {
		return []core.InferredVar{{FuncLow: 0x401000, Size: 8}}, rt.localFP, nil
	}
	rep.srv.Close()
	waitFor(t, 2*time.Second, "ejection", func() bool { return !rt.members[0].up.Load() })

	resp, body := routePost(t, rt, []byte("compute-me-locally"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cati-Replica"); got != "local" {
		t.Fatalf("X-Cati-Replica = %q, want local", got)
	}
	var ir serve.InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Model != "local-fallback-fp" || ir.NumVars != 1 {
		t.Fatalf("unexpected fallback body: %s", body)
	}
	if rt.fallbacks.Load() != 1 {
		t.Fatalf("fallbacks = %d, want 1", rt.fallbacks.Load())
	}

	// Without a fallback the same situation is a clean 502.
	rt.localInfer = nil
	resp, body = routePost(t, rt, []byte("now-fail"))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", resp.StatusCode, body)
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("502 body not an ErrorResponse: %s", body)
	}
}

// /v1/fleet reports per-replica membership and the robustness counters;
// /v1/readyz tracks ring occupancy.
func TestRouterStatusAndReadyz(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b")}
	rt := startRouter(t, Config{
		Replicas:      []string{reps[0].srv.URL, reps[1].srv.URL},
		ProbeInterval: 20 * time.Millisecond,
		EjectAfter:    1,
	})
	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get("http://" + rt.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}
	resp, body := get("/v1/fleet")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/fleet: %d", resp.StatusCode)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Replicas) != 2 {
		t.Fatalf("status lists %d replicas, want 2", len(st.Replicas))
	}
	if resp, _ := get("/v1/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/readyz with live replicas: %d", resp.StatusCode)
	}

	reps[0].srv.Close()
	reps[1].srv.Close()
	waitFor(t, 2*time.Second, "both ejected", func() bool {
		return !rt.members[0].up.Load() && !rt.members[1].up.Load()
	})
	if resp, _ := get("/v1/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/readyz with empty ring and no fallback: %d, want 503", resp.StatusCode)
	}
	resp, body = get("/v1/fleet")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Up != 0 || st.Ejections < 2 {
		t.Fatalf("status after double ejection: up=%d ejections=%d", st.Up, st.Ejections)
	}
}

// TestRouterCancelledForwardNotCounted: when the router cancels a
// forward itself — here mid-request, as it does to a losing hedge — the
// replica's breaker counts no failure. The forward also carries the
// image's SHA-256 as its Idempotency-Key, which lets net/http resend it
// over a fresh connection when a reused one was dead.
func TestRouterCancelledForwardNotCounted(t *testing.T) {
	got := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/infer" {
			w.Write([]byte("ready\n"))
			return
		}
		// With the body read, the server watches the connection and
		// cancels r's context when the router hangs up.
		io.Copy(io.Discard, r.Body)
		got <- r.Header.Get("Idempotency-Key")
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)
	rt := startRouter(t, Config{Replicas: []string{srv.URL}, BreakerThreshold: 1})
	m := rt.members[0]
	image := []byte("cancel-me")
	sum := sha256.Sum256(image)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		if key := <-got; key != hex.EncodeToString(sum[:]) {
			t.Errorf("Idempotency-Key = %q, want the image SHA-256", key)
		}
		cancel()
	}()
	if out := rt.forward(ctx, m, image, sum); !errors.Is(out.err, context.Canceled) {
		t.Fatalf("forward err = %v, want context.Canceled", out.err)
	}
	m.br.mu.Lock()
	state, fails := m.br.state, m.br.fails
	m.br.mu.Unlock()
	if state != breakerClosed || fails != 0 {
		t.Fatalf("breaker after a cancelled forward: state %v, fails %d; want closed with none", state, fails)
	}
}
