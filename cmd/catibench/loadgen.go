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
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/word2vec"
)

// serveRecord is the closed-loop load result for one catiserve (or
// fleet router) configuration.
type serveRecord struct {
	Name        string  `json:"name"`
	Concurrency int     `json:"concurrency"`
	DurationS   float64 `json:"duration_s"`
	Requests    int     `json:"requests"`
	// Errors counts non-200 responses (429 shed included) and transport
	// failures; the closed loop keeps going either way.
	Errors int `json:"errors"`
	// Cached counts 200s answered from the result cache.
	Cached  int     `json:"cached"`
	RPS     float64 `json:"rps"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	ModelFP string  `json:"model,omitempty"`
}

// loadgenImages synthesizes a small, fixed set of distinct stripped
// binaries. Clients cycle through them, so a result cache warms after
// one pass — the repeat-submission shape real decompiler workloads have.
func loadgenImages(n int) ([][]byte, error) {
	images := make([][]byte, n)
	for i := range images {
		seed := int64(900 + i)
		p := synth.Generate(synth.DefaultProfile("loadgen"), seed)
		res, err := compile.Compile(p, compile.Options{Dialect: compile.GCC, Opt: 1, Seed: seed})
		if err != nil {
			return nil, err
		}
		img, err := elfx.Write(elfx.Strip(res.Binary))
		if err != nil {
			return nil, err
		}
		images[i] = img
	}
	return images, nil
}

// runLoadgen drives url with a closed loop: concurrency clients, each
// POSTing the next image the moment its previous response lands, for the
// given duration. Returns the aggregate; percentiles cover successful
// requests only (shed requests return in microseconds and would flatter
// the tail).
func runLoadgen(ctx context.Context, url string, images [][]byte, concurrency int, duration time.Duration) (serveRecord, error) {
	if len(images) == 0 {
		return serveRecord{}, fmt.Errorf("loadgen: no images")
	}
	ctx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()

	type worker struct {
		lat            []time.Duration
		errors, cached int
	}
	workers := make([]worker, concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me := &workers[w]
			client := &http.Client{}
			for i := w; ctx.Err() == nil; i++ {
				img := images[i%len(images)]
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(img))
				if err != nil {
					me.errors++
					continue
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					if ctx.Err() != nil {
						return // cut off mid-request by the clock, not a failure
					}
					me.errors++
					continue
				}
				var ir serve.InferResponse
				decErr := json.NewDecoder(resp.Body).Decode(&ir)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					me.errors++
					continue
				}
				me.lat = append(me.lat, time.Since(t0))
				if ir.Cached {
					me.cached++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lat []time.Duration
	rec := serveRecord{Concurrency: concurrency, DurationS: elapsed.Seconds()}
	for i := range workers {
		lat = append(lat, workers[i].lat...)
		rec.Errors += workers[i].errors
		rec.Cached += workers[i].cached
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rec.Requests = len(lat) + rec.Errors
	rec.RPS = float64(len(lat)) / elapsed.Seconds()
	rec.P50Ms = percentileMs(lat, 0.50)
	rec.P95Ms = percentileMs(lat, 0.95)
	rec.P99Ms = percentileMs(lat, 0.99)
	return rec, nil
}

// percentileMs is the nearest-rank percentile of a sorted sample, in
// milliseconds (0 for an empty sample).
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// runServeURL load-tests an already-running catiserve at url and prints
// the single JSON record to stdout.
func runServeURL(ctx context.Context, log *slog.Logger, url string, concurrency int, duration time.Duration) error {
	images, err := loadgenImages(6)
	if err != nil {
		return err
	}
	log.Info("load-generating", "url", url, "concurrency", concurrency, "duration", duration)
	rec, err := runLoadgen(ctx, url, images, concurrency, duration)
	if err != nil {
		return err
	}
	rec.Name = "serve/external"
	return json.NewEncoder(os.Stdout).Encode(rec)
}

// trainLoadgenModel trains the small shared bench model and writes it
// to a temp artifact; cleanup removes the directory.
func trainLoadgenModel(log *slog.Logger) (model string, cleanup func(), err error) {
	log.Info("training loadgen model")
	c, err := corpus.Build(corpus.BuildConfig{
		Name: "loadgen-train", Binaries: 4,
		Profile: synth.DefaultProfile("loadgentrain"), Window: 5, Seed: 47,
	})
	if err != nil {
		return "", nil, err
	}
	cati, err := core.Train(c, classify.Config{
		Window: 5, Conv1: 8, Conv2: 8, Hidden: 32, MaxPerStage: 500, Flat: true,
		Train: nn.TrainConfig{Epochs: 1, Batch: 32, LR: 2e-3},
		W2V:   word2vec.Config{Epochs: 1}, Seed: 7,
	})
	if err != nil {
		return "", nil, err
	}
	blob, err := cati.Save()
	if err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp("", "cati-loadgen")
	if err != nil {
		return "", nil, err
	}
	model = filepath.Join(dir, "m.model")
	if err := os.WriteFile(model, blob, 0o644); err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return model, func() { os.RemoveAll(dir) }, nil
}
