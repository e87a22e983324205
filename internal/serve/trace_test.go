package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/elfx"
	"repro/internal/trace"
)

// startTracedServer installs a fresh trace collector for the test's
// lifetime and starts a cache-less server whose inference seam is fake.
func startTracedServer(t *testing.T, fake func(ctx context.Context, m *Model, bin *elfx.Binary) core.BinaryResult) (*Server, *trace.Collector) {
	t.Helper()
	fixture(t)
	prev := trace.Default()
	col := trace.NewCollector(trace.Config{})
	trace.SetDefault(col)
	t.Cleanup(func() { trace.SetDefault(prev) })
	s := startServer(t, Config{
		ModelPath: modelFile(t, fixA),
		CacheSize: -1, WatchInterval: -1,
	})
	s.infer = fake
	return s, col
}

// postCancellable sends fixImages[0] under ctx; the returned channel
// carries the client-side error once the request ends.
func postCancellable(t *testing.T, ctx context.Context, addr string) <-chan error {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+"/v1/infer", bytes.NewReader(fixImages[0]))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	return done
}

// awaitNoOpenSpans fails unless every span closes within 5s.
func awaitNoOpenSpans(t *testing.T, col *trace.Collector) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for col.OpenSpans() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d spans still open after the request ended", col.OpenSpans())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelMidBatchClosesSpans: a client that abandons its request
// while inference runs errors out on its side, and even an inference
// call that ignores the cancellation leaves no span open once it
// returns: request, admission, batch and stage spans all close although
// the request context died under them.
func TestCancelMidBatchClosesSpans(t *testing.T) {
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	s, col := startTracedServer(t, func(context.Context, *Model, *elfx.Binary) core.BinaryResult {
		entered <- struct{}{}
		<-gate
		return core.BinaryResult{}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientDone := postCancellable(t, ctx, s.Addr)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached inference")
	}
	cancel() // client walks away mid-inference
	select {
	case err := <-clientDone:
		if err == nil {
			t.Fatal("cancelled request did not error on the client side")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not observe the cancellation")
	}
	close(gate) // let the wedged call return
	awaitNoOpenSpans(t, col)
}

// TestClientCancelStopsInference: inference runs under the request's
// context, so a client that leaves cancels its work — the seam sees
// ctx.Done() while its gate is still shut — and no span stays open.
func TestClientCancelStopsInference(t *testing.T) {
	entered := make(chan struct{}, 1)
	sawDone := make(chan struct{}, 1)
	gate := make(chan struct{})
	defer close(gate)
	s, col := startTracedServer(t, func(ctx context.Context, _ *Model, _ *elfx.Binary) core.BinaryResult {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			sawDone <- struct{}{}
			return core.BinaryResult{Err: ctx.Err()}
		case <-gate:
			return core.BinaryResult{Err: errors.New("gate opened before the cancellation arrived")}
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientDone := postCancellable(t, ctx, s.Addr)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached inference")
	}
	cancel()
	if err := <-clientDone; err == nil {
		t.Fatal("cancelled request did not error on the client side")
	}
	select {
	case <-sawDone:
	case <-time.After(5 * time.Second):
		t.Fatal("inference never saw the client's cancellation")
	}
	awaitNoOpenSpans(t, col)
}
