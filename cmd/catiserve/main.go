// Command catiserve runs CATI as a long-lived HTTP inference service:
// load a trained model once, keep it warm, and answer type-inference
// requests for stripped binaries over a small JSON API (see
// internal/serve for the endpoint and behavior contract).
//
// Usage:
//
//	catiserve -model cati.model
//	catiserve -model cati.model -addr :8090 -max-inflight 8 -cache-size 4096
//	catiserve -model cati.model -debug-addr localhost:6060 -log-format json
//
// The daemon answers on three endpoints:
//
//	POST /v1/infer    raw ELF image in the body → inferred types as JSON
//	GET  /v1/models   the active model's fingerprint, path and load time
//	GET  /v1/healthz  liveness (never blocked by inference load)
//
// With -bulk-dir the daemon additionally mounts the durable bulk API
// (POST /v1/bulk and friends, see internal/bulkq): tarball corpus jobs
// spool to that directory and survive restarts — a killed daemon
// resumes exactly the unfinished binaries. Router mode takes the same
// flags and dispatches each bulk binary to its consistent-hash owner.
//
// Signals:
//
//	SIGHUP           reload the model artifact now (a failed reload keeps
//	                 the current model serving)
//	SIGINT/SIGTERM   graceful drain: stop accepting, finish in-flight
//	                 requests up to -drain-timeout, then exit
//
// The artifact file is also polled every -watch-interval, so retraining
// in place (write to a temp file, rename over -model) rolls the daemon
// onto the new model without a restart; every response names the model
// that produced it in the "model" field and X-Cati-Model header.
//
// # Router mode
//
//	catiserve -router -replicas http://10.0.0.1:8090,http://10.0.0.2:8090
//	catiserve -router -replicas r1:8090,r2:8090,r3:8090 -fallback-model cati.model
//
// With -router the daemon serves no model itself: it consistent-hashes
// /v1/infer requests by image SHA-256 across the -replicas set (cache
// affinity), probes each replica's /v1/readyz to eject dead or
// overloaded ones from the ring and readmit them when they recover,
// retries and hedges individual requests around failures, fills from a
// warm peer's result cache when a request is displaced from its home
// shard, and — when -fallback-model is given — computes locally as the
// last resort. GET /v1/fleet reports per-replica membership and the
// robustness counters. See internal/fleet for the full contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"repro/cmd/internal/cliflags"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "catiserve:", err)
		os.Exit(1)
	}
}

// daemon is a parsed-and-started catiserve instance: the service (or,
// in -router mode, the fleet router), the flag groups that configured
// it, and the shared logger. Exactly one of srv and rt is non-nil.
type daemon struct {
	srv  *serve.Server
	rt   *fleet.Router
	sv   *cliflags.Serve
	diag *cliflags.Diag
	log  *slog.Logger
}

// newDaemon parses args, sets up diagnostics and builds the service —
// loading the model, so a missing or corrupt artifact fails here — but
// does not bind the listen address yet (start does).
func newDaemon(args []string) (*daemon, error) {
	fs := flag.NewFlagSet("catiserve", flag.ContinueOnError)
	model := fs.String("model", "cati.model", "trained model artifact to serve (reloaded on SIGHUP or file change)")
	workers := fs.Int("workers", 0, "inference worker goroutines (0: CATI_WORKERS env, else GOMAXPROCS)")
	router := fs.Bool("router", false, "fleet router mode: shard requests across -replicas instead of serving a model")
	kernel := cliflags.Kernel(fs)
	sv := cliflags.AddServe(fs)
	fl := cliflags.AddFleet(fs)
	bk := cliflags.AddBulk(fs)
	diag := cliflags.AddDiag(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("usage: catiserve -model m [flags] (no positional arguments)")
	}
	log, err := diag.Setup()
	if err != nil {
		return nil, err
	}
	// A daemon is always observable: metric collection and tracing are on
	// even without -debug-addr, because the data port itself serves
	// /metrics, /v1/trace/{id} and /debug/traces (and, in router mode,
	// /v1/fleet/metrics) for federation.
	telemetry.Default().SetEnabled(true)
	if err := diag.EnableTracing(log); err != nil {
		return nil, err
	}
	if err := cliflags.ApplyKernel(*kernel); err != nil {
		return nil, err
	}
	d := &daemon{sv: sv, diag: diag, log: log}
	if *router {
		replicas := fl.ReplicaList()
		if len(replicas) == 0 {
			return nil, fmt.Errorf("-router requires -replicas (comma-separated catiserve base URLs)")
		}
		d.rt, err = fleet.New(fleet.Config{
			Replicas:         replicas,
			Vnodes:           fl.Vnodes,
			ProbeInterval:    fl.ProbeInterval,
			ProbeTimeout:     fl.ProbeTimeout,
			EjectAfter:       fl.EjectAfter,
			RejoinAfter:      fl.RejoinAfter,
			HedgeAfter:       fl.HedgeAfter,
			OwnerRetries:     fl.OwnerRetries,
			Rounds:           fl.Rounds,
			Backoff:          fl.Backoff,
			MaxBackoff:       fl.MaxBackoff,
			BreakerThreshold: fl.BreakerThreshold,
			BreakerCooldown:  fl.BreakerCooldown,
			FillTimeout:      fl.FillTimeout,
			FillGrace:        fl.FillGrace,
			FallbackModel:    fl.FallbackModel,
			Workers:          *workers,
			MaxBody:          sv.MaxBody,
			BulkDir:          bk.Dir,
			BulkWorkers:      bk.Workers,
			MaxBulkBody:      bk.MaxBody,
			BulkMaxEntries:   bk.MaxEntries,
			BulkMaxEntrySize: bk.MaxEntrySize,
			Log:              log,
		})
		if err != nil {
			return nil, err
		}
		return d, nil
	}
	d.srv, err = serve.New(serve.Config{
		ModelPath:        *model,
		Workers:          *workers,
		MaxInFlight:      sv.MaxInFlight,
		MaxQueue:         sv.MaxQueue,
		QueueWait:        sv.QueueWait,
		RetryAfter:       sv.RetryAfter,
		MaxRetryAfter:    sv.MaxRetryAfter,
		ReadyWatermark:   sv.ReadyWatermark,
		CacheSize:        sv.CacheSize,
		BinaryTimeout:    sv.BinaryTimeout,
		Retries:          sv.Retries,
		MaxBody:          sv.MaxBody,
		BulkDir:          bk.Dir,
		BulkWorkers:      bk.Workers,
		MaxBulkBody:      bk.MaxBody,
		BulkMaxEntries:   bk.MaxEntries,
		BulkMaxEntrySize: bk.MaxEntrySize,
		WatchInterval:    sv.WatchInterval,
		Log:              log,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// start binds -addr and begins serving. After start, the bound address
// is d.addr() (which resolves ":0" listens for tests).
func (d *daemon) start() error {
	if d.rt != nil {
		return d.rt.Start(d.sv.Addr)
	}
	return d.srv.Start(d.sv.Addr)
}

// addr is the bound listen address, whichever mode is running.
func (d *daemon) addr() string {
	if d.rt != nil {
		return d.rt.Addr
	}
	return d.srv.Addr
}

// loop blocks, serving reloads, until ctx is cancelled: each SIGHUP
// swaps in a freshly loaded model (or logs and keeps the current one).
func (d *daemon) loop(ctx context.Context, hup <-chan os.Signal) {
	for {
		select {
		case <-hup:
			d.reload()
		case <-ctx.Done():
			return
		}
	}
}

// reload is the SIGHUP action, split out so tests can invoke it without
// delivering a signal. Router mode has no model to reload.
func (d *daemon) reload() {
	if d.srv == nil {
		d.log.Info("SIGHUP ignored: router mode has no model to reload")
		return
	}
	if err := d.srv.Registry().Load(); err != nil {
		d.log.Error("model reload failed; keeping current model", "error", err)
		return
	}
	d.log.Info("model reloaded", "model", d.srv.Registry().Active().Fingerprint)
}

// drain shuts everything down gracefully: the inference API first (in-
// flight requests get up to -drain-timeout), then the debug server, so
// a monitoring system can scrape the final request counts.
func (d *daemon) drain() error {
	d.log.Info("draining", "timeout", d.sv.DrainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), d.sv.DrainTimeout)
	defer cancel()
	var err error
	if d.rt != nil {
		err = d.rt.Shutdown(ctx)
	} else {
		err = d.srv.Shutdown(ctx)
	}
	if d.diag.Server != nil {
		if derr := d.diag.Server.Shutdown(ctx); err == nil {
			err = derr
		}
	}
	d.diag.CloseTracing()
	return err
}

func run(args []string) error {
	d, err := newDaemon(args)
	if err != nil {
		return err
	}
	if err := d.start(); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	d.loop(ctx, hup)
	return d.drain()
}
