package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"repro/internal/bulkq"
	"repro/internal/serve"
)

// bulkRecord is one line of BENCH_bulk.json: one bulk job drained to
// completion through a loopback catiserve, timed end to end. Kill points
// hard-stop the daemon mid-job and restart it against the same queue
// directory, so their numbers include one full crash-recovery cycle —
// Resumed counts the binaries journal replay re-queued, and Done still
// has to reach Binaries without recomputing the already-journaled ones.
type bulkRecord struct {
	Name      string  `json:"name"`
	Binaries  int     `json:"binaries"`
	Workers   int     `json:"workers"`
	Kill      bool    `json:"kill"`
	DurationS float64 `json:"duration_s"`
	BinsPerS  float64 `json:"bins_per_sec"`
	Done      int     `json:"done"`
	Failed    int     `json:"failed"`
	Resumed   int     `json:"resumed"`
	ModelFP   string  `json:"model,omitempty"`
}

// bulkTarball packages images as an in-memory tar.gz corpus.
func bulkTarball(images [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for i, img := range images {
		if err := tw.WriteHeader(&tar.Header{
			Name: fmt.Sprintf("bin-%03d.elf", i),
			Mode: 0o644,
			Size: int64(len(img)),
		}); err != nil {
			return nil, err
		}
		if _, err := tw.Write(img); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// bulkSubmit POSTs a tarball and returns the admitted job's ID.
func bulkSubmit(ctx context.Context, base string, tarball []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/bulk", bytes.NewReader(tarball))
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("bulk submit: HTTP %d", resp.StatusCode)
	}
	var sub bulkq.SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return "", err
	}
	return sub.Job.ID, nil
}

// bulkStatus reads one job's status.
func bulkStatus(ctx context.Context, base, id string) (bulkq.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/bulk/"+id, nil)
	if err != nil {
		return bulkq.JobStatus{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return bulkq.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return bulkq.JobStatus{}, fmt.Errorf("bulk status: HTTP %d", resp.StatusCode)
	}
	var st bulkq.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// bulkWait polls until the predicate holds, with a short fixed cadence
// (bulk drains are milliseconds-per-binary here).
func bulkWait(ctx context.Context, base, id string, pred func(bulkq.JobStatus) bool) (bulkq.JobStatus, error) {
	for {
		st, err := bulkStatus(ctx, base, id)
		if err == nil && pred(st) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
			return st, err
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// newBulkServer starts a loopback catiserve with the bulk queue on dir.
func newBulkServer(model, dir string, workers int, log *slog.Logger) (*serve.Server, error) {
	srv, err := serve.New(serve.Config{
		ModelPath:     model,
		WatchInterval: -1,
		CacheSize:     -1, // every binary computes: the sweep measures drain, not cache
		BulkDir:       dir,
		BulkWorkers:   workers,
		Log:           log,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

// runBulkBench is the sweep behind `catibench -bulk-bench FILE`: train a
// small model in-process, then drain bulk jobs across job-size × worker
// configurations, plus one kill-and-resume point per job size that
// hard-stops the daemon mid-job and restarts it against the same queue
// directory. smoke shrinks the grid for the `make check` gate.
func runBulkBench(ctx context.Context, log *slog.Logger, path string, smoke bool) error {
	model, cleanup, err := trainLoadgenModel(log)
	if err != nil {
		return err
	}
	defer cleanup()

	type point struct {
		jobSize, workers int
		kill             bool
	}
	points := []point{
		{4, 1, false}, {4, 4, false},
		{12, 1, false}, {12, 4, false},
		{8, 1, true}, {12, 2, true},
	}
	if smoke {
		points = []point{{3, 2, false}, {6, 1, true}}
	}
	maxJob := 0
	for _, p := range points {
		if p.jobSize > maxJob {
			maxJob = p.jobSize
		}
	}
	images, err := loadgenImages(maxJob)
	if err != nil {
		return err
	}

	var records []bulkRecord
	for _, p := range points {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec, err := runBulkPoint(ctx, log, model, images[:p.jobSize], p.workers, p.kill)
		if err != nil {
			return fmt.Errorf("bulk point (n=%d workers=%d kill=%v): %w", p.jobSize, p.workers, p.kill, err)
		}
		records = append(records, rec)
		log.Info("bulk bench point", "name", rec.Name,
			"bins_per_sec", fmt.Sprintf("%.1f", rec.BinsPerS),
			"duration_s", fmt.Sprintf("%.2f", rec.DurationS),
			"done", rec.Done, "failed", rec.Failed, "resumed", rec.Resumed)
		if rec.Done+rec.Failed != rec.Binaries {
			return fmt.Errorf("bulk point %s: %d of %d binaries unsettled", rec.Name, rec.Binaries-rec.Done-rec.Failed, rec.Binaries)
		}
		if rec.Kill && rec.Resumed == 0 {
			return fmt.Errorf("bulk point %s: kill-and-resume point resumed no binaries (kill landed outside the job window)", rec.Name)
		}
	}

	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	log.Info("wrote bulk bench records", "path", path, "records", len(records))
	return nil
}

// runBulkPoint drains one or two jobs to completion. With kill, two
// identical jobs are submitted back to back — the FIFO queue drains
// them in order, so when the first job shows progress the second is
// still (mostly) queued — and the daemon is then hard-closed and
// restarted on the same queue directory. That makes the kill window
// deterministic: however fast the first job races, the second one
// always leaves work for journal replay to resume.
func runBulkPoint(ctx context.Context, log *slog.Logger, model string, images [][]byte, workers int, kill bool) (bulkRecord, error) {
	dir, err := os.MkdirTemp("", "cati-bulkbench")
	if err != nil {
		return bulkRecord{}, err
	}
	defer os.RemoveAll(dir)

	tarball, err := bulkTarball(images)
	if err != nil {
		return bulkRecord{}, err
	}
	jobs := 1
	if kill {
		jobs = 2
	}
	rec := bulkRecord{Binaries: jobs * len(images), Workers: workers, Kill: kill}
	rec.Name = fmt.Sprintf("bulk/n=%d,workers=%d", rec.Binaries, workers)
	if kill {
		rec.Name += ",kill"
	}

	srv, err := newBulkServer(model, dir, workers, log)
	if err != nil {
		return rec, err
	}
	rec.ModelFP = srv.Registry().Active().Fingerprint
	base := "http://" + srv.Addr
	start := time.Now()
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		id, err := bulkSubmit(ctx, base, tarball)
		if err != nil {
			srv.Close()
			return rec, err
		}
		ids = append(ids, id)
	}

	if kill {
		// Wait for the first job to make progress; the second is queued
		// behind it and will be cut off by the hard stop.
		if _, err := bulkWait(ctx, base, ids[0], func(st bulkq.JobStatus) bool {
			return st.Done+st.Failed >= 1
		}); err != nil {
			srv.Close()
			return rec, err
		}
		// Hard stop — no drain — then restart on the same queue directory.
		_ = srv.Close()
		srv, err = newBulkServer(model, dir, workers, log)
		if err != nil {
			return rec, err
		}
		base = "http://" + srv.Addr
	}

	for _, id := range ids {
		st, err := bulkWait(ctx, base, id, func(st bulkq.JobStatus) bool {
			return st.State == "done"
		})
		if err != nil {
			srv.Close()
			return rec, err
		}
		rec.Done += st.Done
		rec.Failed += st.Failed
		rec.Resumed += st.Resumed
	}
	elapsed := time.Since(start)
	if err := srv.Close(); err != nil {
		return rec, err
	}
	rec.DurationS = elapsed.Seconds()
	rec.BinsPerS = float64(rec.Done+rec.Failed) / elapsed.Seconds()
	return rec, nil
}
