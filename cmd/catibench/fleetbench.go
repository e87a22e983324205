package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/fleetfault"
	"repro/internal/serve"
)

// fleetRecord is one line of BENCH_fleet.json: a closed-loop load
// result against the fleet router, plus the robustness counters the
// sweep exercised.
type fleetRecord struct {
	serveRecord
	// Replicas is the fleet size behind the router for this point.
	Replicas int `json:"replicas"`
	// Chaos marks points measured under active fault injection.
	Chaos bool `json:"chaos"`
	// Counters from the router's /v1/fleet status at the end of the run.
	Ejections      uint64 `json:"ejections"`
	Rejoins        uint64 `json:"rejoins"`
	Hedges         uint64 `json:"hedges"`
	FleetRetries   uint64 `json:"fleet_retries"`
	CacheFills     uint64 `json:"cache_fills"`
	LocalFallbacks uint64 `json:"local_fallbacks"`
}

// runFleetBench is the sweep behind `catibench -fleet-bench FILE
// [-chaos]`: train the shared bench model once, then for each fleet
// size 1..maxReplicas start that many loopback catiserve replicas
// behind fault-injecting proxies, front them with a fleet router, and
// measure a closed-loop load through the router. With chaos on (and at
// least two replicas, so there is a survivor), a fault agent sweeps
// latency spikes, truncated responses, refused connections and a
// mid-run replica kill/restart across the proxies while the load runs —
// and the sweep REQUIRES zero failed client requests: the router's
// whole contract is that single-replica faults never reach clients.
func runFleetBench(ctx context.Context, log *slog.Logger, path string, concurrency int, duration time.Duration, maxReplicas int, chaos bool) error {
	if maxReplicas < 1 {
		return fmt.Errorf("fleet-bench: -fleet-replicas must be >= 1, got %d", maxReplicas)
	}
	model, cleanup, err := trainLoadgenModel(log)
	if err != nil {
		return err
	}
	defer cleanup()
	images, err := loadgenImages(6)
	if err != nil {
		return err
	}

	var records []fleetRecord
	for n := 1; n <= maxReplicas; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		inject := chaos && n >= 2 // a 1-replica fleet has no survivor to fail over to
		rec, err := fleetBenchPoint(ctx, log, model, images, n, inject, concurrency, duration)
		if err != nil {
			return fmt.Errorf("fleet-bench replicas=%d: %w", n, err)
		}
		records = append(records, rec)
		log.Info("fleet bench point", "name", rec.Name,
			"rps", fmt.Sprintf("%.1f", rec.RPS), "p95_ms", fmt.Sprintf("%.2f", rec.P95Ms),
			"errors", rec.Errors, "ejections", rec.Ejections, "rejoins", rec.Rejoins,
			"hedges", rec.Hedges, "retries", rec.FleetRetries, "fills", rec.CacheFills)
	}

	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	log.Info("wrote fleet bench records", "path", path, "records", len(records))
	return nil
}

// fleetBenchPoint measures one fleet size: n replicas behind proxies,
// one router, one closed-loop load window.
func fleetBenchPoint(ctx context.Context, log *slog.Logger, model string, images [][]byte, n int, inject bool, concurrency int, duration time.Duration) (fleetRecord, error) {
	var proxies []*fleetfault.Proxy
	var urls []string
	for i := 0; i < n; i++ {
		sc := serve.Config{
			ModelPath: model, WatchInterval: -1, Log: log,
			CacheSize: 256, MaxInFlight: 2 * concurrency, MaxQueue: 2 * concurrency,
		}
		srv, err := serve.New(sc)
		if err != nil {
			return fleetRecord{}, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return fleetRecord{}, err
		}
		defer srv.Close()
		p, err := fleetfault.New("127.0.0.1:0", srv.Addr)
		if err != nil {
			return fleetRecord{}, err
		}
		defer p.Close()
		proxies = append(proxies, p)
		urls = append(urls, "http://"+p.Addr())
	}

	rt, err := fleet.New(fleet.Config{
		Replicas:        urls,
		ProbeInterval:   50 * time.Millisecond,
		EjectAfter:      3,
		RejoinAfter:     2,
		HedgeAfter:      100 * time.Millisecond,
		Backoff:         5 * time.Millisecond,
		BreakerCooldown: 250 * time.Millisecond,
		Log:             log,
	})
	if err != nil {
		return fleetRecord{}, err
	}
	if err := rt.Start("127.0.0.1:0"); err != nil {
		return fleetRecord{}, err
	}
	defer rt.Close()

	chaosDone := make(chan struct{})
	if inject {
		go func() {
			defer close(chaosDone)
			chaosAgent(ctx, log, proxies, duration)
		}()
	} else {
		close(chaosDone)
	}

	rec, err := runLoadgen(ctx, "http://"+rt.Addr+"/v1/infer", images, concurrency, duration)
	<-chaosDone
	if err != nil {
		return fleetRecord{}, err
	}
	if inject && rec.Errors > 0 {
		return fleetRecord{}, fmt.Errorf("chaos sweep saw %d failed client requests (of %d) — the router must absorb single-replica faults", rec.Errors, rec.Requests)
	}

	st, err := fleetStatus(rt.Addr)
	if err != nil {
		return fleetRecord{}, err
	}
	if inject {
		// The killed replica was restarted at the end of the agent's
		// script: require the clean rejoin before calling the point done.
		deadline := time.Now().Add(5 * time.Second)
		for st.Up != n {
			if time.Now().After(deadline) {
				return fleetRecord{}, fmt.Errorf("fleet did not re-converge after chaos: %d/%d up", st.Up, n)
			}
			time.Sleep(50 * time.Millisecond)
			if st, err = fleetStatus(rt.Addr); err != nil {
				return fleetRecord{}, err
			}
		}
		if st.Ejections == 0 || st.Rejoins == 0 {
			return fleetRecord{}, fmt.Errorf("chaos ran but membership never cycled (ejections=%d rejoins=%d)", st.Ejections, st.Rejoins)
		}
	}

	out := fleetRecord{
		serveRecord:    rec,
		Replicas:       n,
		Chaos:          inject,
		Ejections:      st.Ejections,
		Rejoins:        st.Rejoins,
		Hedges:         st.Hedges,
		FleetRetries:   st.Retries,
		CacheFills:     st.CacheFills,
		LocalFallbacks: st.LocalFallbacks,
	}
	out.Name = fmt.Sprintf("fleet/replicas=%d,chaos=%v", n, inject)
	return out, nil
}

// fleetStatus fetches the router's /v1/fleet snapshot.
func fleetStatus(addr string) (fleet.Status, error) {
	var st fleet.Status
	resp, err := http.Get("http://" + addr + "/v1/fleet")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/fleet: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// chaosAgent runs the fault script across the proxies while the load
// loop measures: latency on one replica, truncation on another, refused
// connections, then a hard kill with a restart near the end. Phases are
// scaled to the measurement window so every fault gets exercised
// regardless of -serve-duration.
func chaosAgent(ctx context.Context, log *slog.Logger, proxies []*fleetfault.Proxy, duration time.Duration) {
	phase := duration / 12
	pause := func(d time.Duration) bool {
		select {
		case <-time.After(d):
			return true
		case <-ctx.Done():
			return false
		}
	}
	step := func(p *fleetfault.Proxy, m fleetfault.Mode) bool {
		log.Info("chaos: injecting", "mode", m.String())
		p.SetMode(m)
		if !pause(phase) {
			return false
		}
		p.SetMode(fleetfault.Pass)
		return pause(phase / 2)
	}

	if !pause(phase) { // warm-up: all caches see traffic first
		return
	}
	victim := proxies[len(proxies)-1]
	if !step(proxies[0], fleetfault.Latency) {
		return
	}
	if !step(proxies[1%len(proxies)], fleetfault.Truncate) {
		return
	}
	if !step(victim, fleetfault.Refuse) {
		return
	}
	log.Info("chaos: killing replica", "replica", victim.Addr())
	victim.Kill()
	pause(2 * phase)
	// Restart unconditionally — the rejoin assertion needs the replica
	// back even when the window is being cancelled.
	if err := victim.Restart(); err != nil {
		log.Error("chaos: restart failed", "error", err)
	}
}
