package cliflags

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vuc"
)

func TestAddRuntimeParsesFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	rt := AddRuntime(fs)
	if err := fs.Parse([]string{"-workers", "3", "-timeout", "150ms", "-trace"}); err != nil {
		t.Fatal(err)
	}
	if rt.Workers != 3 || rt.Timeout != 150*time.Millisecond || !rt.Trace {
		t.Fatalf("flags not plumbed: %+v", rt)
	}
}

func TestAddRuntimeDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	rt := AddRuntime(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if rt.Workers != 0 || rt.Timeout != 0 || rt.Trace {
		t.Fatalf("unexpected defaults: %+v", rt)
	}
}

func TestContextTimeout(t *testing.T) {
	rt := &Runtime{Timeout: 20 * time.Millisecond}
	ctx, stop := rt.Context()
	defer stop()
	select {
	case <-ctx.Done():
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			t.Fatalf("want DeadlineExceeded, got %v", ctx.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("-timeout did not expire the context")
	}
}

func TestContextNoTimeout(t *testing.T) {
	rt := &Runtime{}
	ctx, stop := rt.Context()
	defer stop()
	if err := ctx.Err(); err != nil {
		t.Fatalf("context dead on arrival: %v", err)
	}
	stop()
	// stop releases the signal handler; the context it returned is done.
	<-ctx.Done()
}

func TestNewTrace(t *testing.T) {
	if tr := (&Runtime{}).NewTrace(); tr != nil {
		t.Fatal("trace allocated with -trace off")
	}
	if tr := (&Runtime{Trace: true}).NewTrace(); tr == nil {
		t.Fatal("no trace with -trace on")
	}
}

func TestPrintTrace(t *testing.T) {
	var buf bytes.Buffer
	PrintTrace(&buf, nil)
	PrintTrace(&buf, &obs.Trace{})
	if buf.Len() != 0 {
		t.Fatalf("nil/empty trace printed: %q", buf.String())
	}
	tr := &obs.Trace{}
	tr.Add(obs.Stage{Name: "embed", Wall: time.Millisecond, Items: 4, Workers: 2})
	PrintTrace(&buf, tr)
	out := buf.String()
	if !strings.Contains(out, "stage breakdown:") || !strings.Contains(out, "embed") {
		t.Fatalf("breakdown missing: %q", out)
	}
}

func TestAddServeDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	sv := AddServe(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	// Everything except -addr and -drain-timeout defers (as zero) to
	// serve.Config's defaults, keeping one source of truth.
	if sv.Addr != "localhost:8090" || sv.DrainTimeout != 10*time.Second {
		t.Fatalf("defaults wrong: %+v", sv)
	}
	if sv.MaxInFlight != 0 || sv.MaxQueue != 0 || sv.QueueWait != 0 ||
		sv.RetryAfter != 0 || sv.CacheSize != 0 || sv.MaxBody != 0 ||
		sv.BinaryTimeout != 0 || sv.Retries != 0 || sv.WatchInterval != 0 {
		t.Fatalf("service knobs should default to zero (deferred): %+v", sv)
	}
}

func TestAddServeParsesFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	sv := AddServe(fs)
	args := []string{
		"-addr", "127.0.0.1:0",
		"-max-inflight", "12", "-max-queue", "5", "-queue-wait", "250ms",
		"-retry-after", "3s",
		"-cache-size", "-1", "-max-body", "1048576",
		"-binary-timeout", "30s", "-retries", "2",
		"-watch-interval", "-1s", "-drain-timeout", "7s",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Serve{
		Addr: "127.0.0.1:0", MaxInFlight: 12, MaxQueue: 5,
		QueueWait: 250 * time.Millisecond, RetryAfter: 3 * time.Second,
		CacheSize: -1, MaxBody: 1 << 20, BinaryTimeout: 30 * time.Second, Retries: 2,
		WatchInterval: -time.Second, DrainTimeout: 7 * time.Second,
	}
	if *sv != want {
		t.Fatalf("flags not plumbed:\n got %+v\nwant %+v", *sv, want)
	}
}

func TestSetupStartsDebugServer(t *testing.T) {
	d := &Diag{DebugAddr: "127.0.0.1:0", LogFormat: "text", LogLevel: "info"}
	log, err := d.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if log == nil {
		t.Fatal("no logger")
	}
	if d.Server == nil || d.Server.Addr == "" {
		t.Fatalf("Setup did not record the debug server handle: %+v", d.Server)
	}
	defer d.Server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Server.Shutdown(ctx); err != nil {
		t.Fatalf("debug server shutdown: %v", err)
	}
}

func TestSeedAndWindow(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	seed := Seed(fs, 42)
	win := Window(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *seed != 42 || *win != vuc.DefaultWindow {
		t.Fatalf("defaults wrong: seed=%d window=%d", *seed, *win)
	}
	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	seed2 := Seed(fs2, 42)
	win2 := Window(fs2)
	if err := fs2.Parse([]string{"-seed", "7", "-window", "5"}); err != nil {
		t.Fatal(err)
	}
	if *seed2 != 7 || *win2 != 5 {
		t.Fatalf("flags not plumbed: seed=%d window=%d", *seed2, *win2)
	}
}
