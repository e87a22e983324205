package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bulkq"
	"repro/internal/classify"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/word2vec"
)

// Package fixture: two tiny trained model artifacts (distinct seeds →
// distinct weights → distinct fingerprints), trained once per process.
var (
	fixOnce      sync.Once
	fixA, fixB   []byte
	fpA, fpB     string
	fixCATI      *core.CATI // loaded from fixA, for serial baselines
	fixErr       error
	fixImages    [][]byte // stripped ELF images for requests
	fixImagesErr error
)

func trainBlob(seed int64) ([]byte, error) {
	c, err := corpus.Build(corpus.BuildConfig{
		Name: fmt.Sprintf("serve-train-%d", seed), Binaries: 2,
		Profile: synth.DefaultProfile("servetrain"), Window: 5, Seed: 41,
	})
	if err != nil {
		return nil, err
	}
	cati, err := core.Train(c, classify.Config{
		Window: 5, Conv1: 4, Conv2: 4, Hidden: 16, MaxPerStage: 200, Flat: true,
		Train: nn.TrainConfig{Epochs: 1, Batch: 32, LR: 2e-3},
		W2V:   word2vec.Config{Epochs: 1}, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return cati.Save()
}

func fixture(t *testing.T) {
	t.Helper()
	fixOnce.Do(func() {
		if fixA, fixErr = trainBlob(4); fixErr != nil {
			return
		}
		if fixB, fixErr = trainBlob(9); fixErr != nil {
			return
		}
		var a, b *core.CATI
		if a, fixErr = core.Load(fixA); fixErr != nil {
			return
		}
		if b, fixErr = core.Load(fixB); fixErr != nil {
			return
		}
		fixCATI, fpA, fpB = a, a.Fingerprint(), b.Fingerprint()
		if fpA == fpB {
			fixErr = fmt.Errorf("fixture models share fingerprint %q", fpA)
			return
		}
		for seed := int64(700); seed < 712; seed++ {
			p := synth.Generate(synth.DefaultProfile("serve-bin"), seed)
			res, err := compile.Compile(p, compile.Options{Dialect: compile.GCC, Opt: 1, Seed: seed})
			if err != nil {
				fixImagesErr = err
				return
			}
			img, err := elfx.Write(elfx.Strip(res.Binary))
			if err != nil {
				fixImagesErr = err
				return
			}
			fixImages = append(fixImages, img)
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	if fixImagesErr != nil {
		t.Fatal(fixImagesErr)
	}
}

// modelFile writes blob as a model artifact in a fresh temp dir.
func modelFile(t *testing.T, blob []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cati.model")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// startServer builds and starts a server on a loopback port, registering
// cleanup.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func postInfer(t *testing.T, addr string, image []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/infer", "application/octet-stream", bytes.NewReader(image))
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

// toRecords renders a serial InferBinary baseline in the wire schema.
func toRecords(vars []core.InferredVar) []VarRecord {
	out := make([]VarRecord, len(vars))
	for i, v := range vars {
		out[i] = VarRecord{FuncLow: v.FuncLow, Slot: v.Slot, Global: v.Global,
			Size: v.Size, NumVUCs: v.NumVUCs, Class: v.Class.String()}
	}
	return out
}

func sameRecords(a, b []VarRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInferEndToEnd is the subsystem's acceptance path: start the
// service on a loopback port, POST a synthesized stripped binary, and
// check the decoded response exactly matches (*core.CATI).InferBinary on
// the same image — plus the fingerprint plumbing on /v1/infer and
// /v1/models.
func TestInferEndToEnd(t *testing.T) {
	fixture(t)
	s := startServer(t, Config{ModelPath: modelFile(t, fixA), WatchInterval: -1})

	img := fixImages[0]
	bin, err := elfx.Read(img)
	if err != nil {
		t.Fatal(err)
	}
	wantVars, err := fixCATI.InferBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	want := toRecords(wantVars)

	resp, body := postInfer(t, s.Addr, img)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/infer = %d: %s", resp.StatusCode, body)
	}
	var got InferResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("response does not decode: %v\n%s", err, body)
	}
	if got.Model != fpA {
		t.Fatalf("response model %q, want %q", got.Model, fpA)
	}
	if h := resp.Header.Get("X-Cati-Model"); h != fpA {
		t.Fatalf("X-Cati-Model %q, want %q", h, fpA)
	}
	if got.Cached {
		t.Fatal("first request reported cached")
	}
	if got.NumVars != len(got.Vars) || len(got.Vars) == 0 {
		t.Fatalf("num_vars %d, len(vars) %d", got.NumVars, len(got.Vars))
	}
	if !sameRecords(got.Vars, want) {
		t.Fatalf("served inference differs from InferBinary:\n got %+v\nwant %+v", got.Vars, want)
	}

	// /v1/models surfaces the same fingerprint.
	mresp, err := http.Get("http://" + s.Addr + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var models ModelsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if models.Active.Fingerprint != fpA || models.Active.Reloads != 0 {
		t.Fatalf("models = %+v, want fingerprint %q, 0 reloads", models.Active, fpA)
	}

	// Garbage input is that request's 400, not a server failure.
	resp400, body400 := postInfer(t, s.Addr, []byte("definitely not an ELF"))
	if resp400.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage image = %d: %s", resp400.StatusCode, body400)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body400, &e); err != nil || e.Error == "" {
		t.Fatalf("400 body not an ErrorResponse: %v %s", err, body400)
	}
}

// TestServePathsEquivalence checks that every way the daemon answers for
// an image — N concurrent uncached POST /v1/infer, a cached repeat, the
// GET /v1/cache/{sha} peer fill, and a bulk job — returns variable
// records byte-identical to a serial InferBinaryCtx on the same model.
func TestServePathsEquivalence(t *testing.T) {
	fixture(t)
	n := len(fixImages)
	want := make([][]byte, n)
	for i, img := range fixImages {
		bin, err := elfx.Read(img)
		if err != nil {
			t.Fatal(err)
		}
		vars, err := fixCATI.InferBinaryCtx(context.Background(), bin)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(toRecords(vars)); err != nil {
			t.Fatal(err)
		}
	}
	// raw is an InferResponse with its records left as the bytes on the wire.
	type raw struct {
		Model  string          `json:"model"`
		Cached bool            `json:"cached"`
		Vars   json.RawMessage `json:"vars"`
	}
	check := func(path string, i int, code int, body []byte, cached bool) error {
		if code != http.StatusOK {
			return fmt.Errorf("%s %d: status %d: %s", path, i, code, body)
		}
		var got raw
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s %d: %v", path, i, err)
		}
		if got.Model != fpA || got.Cached != cached {
			return fmt.Errorf("%s %d: model %q cached %v, want %q cached %v", path, i, got.Model, got.Cached, fpA, cached)
		}
		if !bytes.Equal(got.Vars, want[i]) {
			return fmt.Errorf("%s %d: records differ from serial InferBinaryCtx:\n got %s\nwant %s", path, i, got.Vars, want[i])
		}
		return nil
	}

	s := startServer(t, Config{
		ModelPath:   modelFile(t, fixA),
		MaxInFlight: n, MaxQueue: n, QueueWait: 5 * time.Second,
		CacheSize: 64, WatchInterval: -1,
	})
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range fixImages {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post("http://"+s.Addr+"/v1/infer", "application/octet-stream", bytes.NewReader(fixImages[i]))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = check("uncached POST", i, resp.StatusCode, body, false)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, img := range fixImages {
		resp, body := postInfer(t, s.Addr, img)
		if err := check("cached POST", i, resp.StatusCode, body, true); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(img)
		cresp, err := http.Get("http://" + s.Addr + "/v1/cache/" + hex.EncodeToString(sum[:]))
		if err != nil {
			t.Fatal(err)
		}
		cbody, err := io.ReadAll(cresp.Body)
		cresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := check("GET /v1/cache", i, cresp.StatusCode, cbody, true); err != nil {
			t.Fatal(err)
		}
	}

	// The bulk job runs on its own cache-less daemon, so every binary is
	// computed rather than read back from the POSTs above.
	b := startServer(t, Config{
		ModelPath: modelFile(t, fixA), CacheSize: -1, WatchInterval: -1,
		BulkDir: t.TempDir(), BulkWorkers: 2,
	})
	resp, err := http.Post("http://"+b.Addr+"/v1/bulk", "application/x-tar",
		bytes.NewReader(bulkArchive(t, fixImages)))
	if err != nil {
		t.Fatal(err)
	}
	var sub bulkq.SubmitResult
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bulk submit: code=%d err=%v", resp.StatusCode, err)
	}
	if st := waitBulkJob(t, b.Addr, sub.Job.ID, func(st bulkq.JobStatus) bool {
		return st.State == "done"
	}); st.Done != n {
		t.Fatalf("bulk job: %+v", st)
	}
	resp, err = http.Get("http://" + b.Addr + "/v1/bulk/" + sub.Job.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	seen := 0
	for ; ; seen++ {
		var rec bulkq.ResultRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if rec.State != "done" || rec.Model != fpA || rec.Attempts != 1 {
			t.Fatalf("bulk result %d: %+v", rec.Index, rec)
		}
		if !bytes.Equal(rec.Vars, want[rec.Index]) {
			t.Fatalf("bulk result %d: records differ from serial InferBinaryCtx:\n got %s\nwant %s", rec.Index, rec.Vars, want[rec.Index])
		}
	}
	if seen != n {
		t.Fatalf("bulk results: %d lines, want %d", seen, n)
	}
}

// TestOverload exhausts the in-flight and queue bounds with a gated
// inference function and checks: excess requests get 429 + Retry-After
// (queue-full instantly, queued ones at the deadline), healthz stays
// responsive throughout, and the blocked requests complete fine once the
// gate opens. The server neither crashes nor wedges.
func TestOverload(t *testing.T) {
	fixture(t)
	s := startServer(t, Config{
		ModelPath:   modelFile(t, fixA),
		MaxInFlight: 2, MaxQueue: 1,
		QueueWait:     200 * time.Millisecond,
		CacheSize:     -1,
		WatchInterval: -1,
	})
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.infer = func(context.Context, *Model, *elfx.Binary) core.BinaryResult {
		entered <- struct{}{}
		<-gate
		return core.BinaryResult{}
	}

	type reply struct {
		code       int
		retryAfter string
	}
	fire := func() chan reply {
		ch := make(chan reply, 1)
		go func() {
			resp, err := http.Post("http://"+s.Addr+"/v1/infer", "application/octet-stream", bytes.NewReader(fixImages[0]))
			if err != nil {
				ch <- reply{code: -1}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ch <- reply{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}()
		return ch
	}

	// Fill both execution slots.
	r1, r2 := fire(), fire()
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("requests never reached the inference core")
		}
	}
	// Fill the one queue slot.
	r3 := fire()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.adm.waiters) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("third request never queued (waiters %d)", len(s.adm.waiters))
		}
		time.Sleep(time.Millisecond)
	}

	// Beyond in-flight + queue: immediate 429.
	r4 := <-fire()
	if r4.code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request = %d, want 429", r4.code)
	}
	if r4.retryAfter == "" {
		t.Fatal("429 missing Retry-After")
	}

	// healthz never blocks, even with every slot and queue position taken.
	hc := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr + "/v1/healthz")
		if err != nil {
			hc <- -1
			return
		}
		resp.Body.Close()
		hc <- resp.StatusCode
	}()
	select {
	case code := <-hc:
		if code != http.StatusOK {
			t.Fatalf("healthz under overload = %d", code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("healthz blocked under overload")
	}

	// The queued request times out into a 429.
	select {
	case r := <-r3:
		if r.code != http.StatusTooManyRequests {
			t.Fatalf("queued request = %d, want 429 after queue deadline", r.code)
		}
		if r.retryAfter == "" {
			t.Fatal("queue-timeout 429 missing Retry-After")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never timed out")
	}

	// Release: the two admitted requests complete normally.
	close(gate)
	for _, ch := range []chan reply{r1, r2} {
		select {
		case r := <-ch:
			if r.code != http.StatusOK {
				t.Fatalf("admitted request = %d after gate opened", r.code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("admitted request never completed")
		}
	}
}

// TestHotReloadMidTraffic hammers the server from several goroutines
// while the artifact file is replaced and reloaded: no request may fail,
// and the fingerprint in responses must flip from the old model's to the
// new one's.
func TestHotReloadMidTraffic(t *testing.T) {
	fixture(t)
	path := modelFile(t, fixA)
	s := startServer(t, Config{
		ModelPath:   path,
		CacheSize:   -1, // every request exercises inference on the live model
		MaxInFlight: 8, MaxQueue: 32, QueueWait: 10 * time.Second,
		WatchInterval: -1, // reload triggered explicitly below
	})

	const workers = 4
	stop := make(chan struct{})
	type obs struct {
		codes  map[int]int
		models map[string]int
		last   string
		err    error
	}
	results := make([]obs, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := obs{codes: map[int]int{}, models: map[string]int{}}
			defer func() { results[w] = o }()
			img := fixImages[w%len(fixImages)]
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post("http://"+s.Addr+"/v1/infer", "application/octet-stream", bytes.NewReader(img))
				if err != nil {
					o.err = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					o.err = err
					return
				}
				o.codes[resp.StatusCode]++
				if resp.StatusCode == http.StatusOK {
					var ir InferResponse
					if err := json.Unmarshal(body, &ir); err != nil {
						o.err = err
						return
					}
					o.models[ir.Model]++
					o.last = ir.Model
				}
			}
		}(w)
	}

	// Let traffic run on model A, then swap the artifact mid-stream.
	time.Sleep(200 * time.Millisecond)
	if err := os.WriteFile(path, fixB, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Load(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	sawA, sawB, total := 0, 0, 0
	for w, o := range results {
		if o.err != nil {
			t.Fatalf("worker %d: %v", w, o.err)
		}
		for code, n := range o.codes {
			total += n
			if code != http.StatusOK {
				t.Fatalf("worker %d: %d responses with status %d during reload", w, n, code)
			}
		}
		sawA += o.models[fpA]
		sawB += o.models[fpB]
		for m := range o.models {
			if m != fpA && m != fpB {
				t.Fatalf("worker %d: response with unknown fingerprint %q", w, m)
			}
		}
	}
	if sawA == 0 {
		t.Fatalf("traffic did not span the swap: %d on old, %d on new (total %d)", sawA, sawB, total)
	}
	// A worker's very last response may still carry the old fingerprint —
	// its final request can have snapshotted the model just before the
	// swap and finished slowly. The invariant to pin is
	// that a request submitted strictly after the reload runs on B.
	resp, body := postInfer(t, s.Addr, fixImages[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload request = %d: %s", resp.StatusCode, body)
	}
	var ir InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Model != fpB {
		t.Fatalf("post-reload request on %q, want new model %q", ir.Model, fpB)
	}
	if got := s.Registry().Reloads(); got != 1 {
		t.Fatalf("Reloads() = %d, want 1", got)
	}
}

// TestResultCache checks the content-addressed cache: a repeated image is
// answered from cache with identical variables, and a model reload makes
// the same image miss again (the fingerprint is part of the key).
func TestResultCache(t *testing.T) {
	fixture(t)
	path := modelFile(t, fixA)
	s := startServer(t, Config{ModelPath: path, CacheSize: 64, WatchInterval: -1})
	img := fixImages[1]

	var first, second InferResponse
	resp, body := postInfer(t, s.Addr, img)
	if resp.StatusCode != 200 {
		t.Fatalf("first = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request hit the cache")
	}
	resp, body = postInfer(t, s.Addr, img)
	if resp.StatusCode != 200 {
		t.Fatalf("second = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat request missed the cache")
	}
	if second.Model != fpA || !sameRecords(first.Vars, second.Vars) {
		t.Fatal("cached response differs from computed one")
	}

	// Reload to model B: same image must miss (and carry the new print).
	if err := os.WriteFile(path, fixB, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Load(); err != nil {
		t.Fatal(err)
	}
	var third InferResponse
	resp, body = postInfer(t, s.Addr, img)
	if resp.StatusCode != 200 {
		t.Fatalf("post-reload = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("cache hit across a model reload")
	}
	if third.Model != fpB {
		t.Fatalf("post-reload model %q, want %q", third.Model, fpB)
	}
}

// TestGracefulDrain pins a request in flight, starts Shutdown, and
// checks the request completes (200) before Shutdown returns.
func TestGracefulDrain(t *testing.T) {
	fixture(t)
	s := startServer(t, Config{
		ModelPath: modelFile(t, fixA),
		CacheSize: -1, WatchInterval: -1,
	})
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	real := s.infer
	s.infer = func(ctx context.Context, m *Model, bin *elfx.Binary) core.BinaryResult {
		entered <- struct{}{}
		<-gate
		return real(ctx, m, bin)
	}

	reply := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+s.Addr+"/v1/infer", "application/octet-stream", bytes.NewReader(fixImages[2]))
		if err != nil {
			reply <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reply <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached inference")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case code := <-reply:
		if code != http.StatusOK {
			t.Fatalf("in-flight request = %d during drain", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned")
	}
}
