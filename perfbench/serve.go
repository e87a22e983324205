package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// serveWorkload is one open-loop traffic mix against the service.
type serveWorkload struct {
	name string
	// rate is the fixed offered rate of the latency phase (requests/s).
	rate float64
	// limitMs is the p99 latency limit of the capacity ladder.
	limitMs float64
	ladder  ladder
	// bases is the number of generated programs; stream keeps their draws
	// apart from the corpus's.
	bases  int
	stream int64
}

// serveCold's fixed rate is about half of the uncached capacity measured
// on a 2-core x86-64 VM (go1.24, jit GEMM backend); the ladder starts well
// below and ends well above that capacity in 3% steps.
var serveCold = serveWorkload{
	name: "serve-cold", rate: 70, limitMs: 100,
	ladder: ladder{Base: 40, Ratio: 1.03, Steps: 63},
	bases:  64, stream: 2,
}

// p99Windows is the number of consecutive windows the fixed-rate phase is
// split into for req_p99_ms, the median of their p99s.
const p99Windows = 5

// requestSource turns (phase, index) into a request body: a base program
// drawn from the seed, with a nonce from a counter that only grows, so no
// image is ever sent twice.
type requestSource struct {
	seed  int64
	bases []*program
	refs  []*transcript
	nonce atomic.Uint64
}

// request returns the body of request i of a phase and its base program.
func (s *requestSource) request(phase, i int64) ([]byte, int) {
	base := int(mix(s.seed, 10, phase, i) % int64(len(s.bases)))
	return withNonce(s.bases[base].Image, s.seed, s.nonce.Add(1)), base
}

// reqRecord is one request of an open-loop phase, in due order.
type reqRecord struct {
	Base     int
	Sent, OK bool
	Mismatch bool
	Code     int
	// LateMs is how far behind its due time the request was sent;
	// LatencyMs runs from the due time to the end of the response, and
	// ClientMs from the send.
	LateMs, LatencyMs, ClientMs float64
	TraceID                     string
}

// loadgen is the single load-generating process: one sender goroutine and
// one connection per CPU.
type loadgen struct {
	url     string
	src     *requestSource
	clients []*http.Client
	phase   atomic.Int64
}

func newLoadgen(addr string, src *requestSource) *loadgen {
	g := &loadgen{url: "http://" + addr + "/v1/infer", src: src}
	for i := 0; i < runtime.NumCPU(); i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
			},
		})
	}
	return g
}

// close drops the idle connections.
func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// post sends one image and returns the status, the body and the trace ID.
func (g *loadgen) post(ctx context.Context, c *http.Client, body []byte) (int, []byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header.Get("X-Cati-Trace-Id"), err
}

// openLoop offers rate requests/s for dur on a fixed schedule: request i
// is due at i/rate, and whichever sender is free takes the next one. A
// request is timed from its due time, so a stall shows in every request
// it delays. Requests still unsent well past the end are not sent and
// count as failed.
func (g *loadgen) openLoop(ctx context.Context, rate float64, dur time.Duration) []reqRecord {
	phase := g.phase.Add(1)
	n := max(1, int(rate*dur.Seconds()))
	recs := make([]reqRecord, n)
	cutoff := dur + max(time.Second, dur/2)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				body, base := g.src.request(phase, i)
				r := &recs[i]
				r.Base = base
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if d := due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(t0)
				if sent > cutoff || ctx.Err() != nil {
					continue
				}
				r.Sent = true
				r.LateMs = ms(sent - due)
				code, resp, id, err := g.post(ctx, c, body)
				done := time.Since(t0)
				r.LatencyMs, r.ClientMs = ms(done-due), ms(done-sent)
				r.Code, r.TraceID = code, id
				if err == nil && code == http.StatusOK {
					r.OK = g.src.refs[base].matchesResponse(resp)
					r.Mismatch = !r.OK
				}
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// closedLoop keeps every connection busy for dur and returns the verified
// completions per second and the number of mismatched answers.
func (g *loadgen) closedLoop(ctx context.Context, dur time.Duration) (float64, int) {
	phase := g.phase.Add(1)
	var next atomic.Int64
	var okN, bad atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Since(t0) < dur && ctx.Err() == nil {
				body, base := g.src.request(phase, next.Add(1)-1)
				code, resp, _, err := g.post(ctx, c, body)
				if err != nil || code != http.StatusOK {
					continue
				}
				if g.src.refs[base].matchesResponse(resp) {
					okN.Add(1)
				} else {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return float64(okN.Load()) / time.Since(t0).Seconds(), int(bad.Load())
}

// scrape reads the service's /metrics and sums every series by name.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 && i < len(name) {
			name = line[:i]
			_, rest, ok = strings.Cut(line[strings.LastIndexByte(line, '}')+1:], " ")
		}
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// serveRun is a started service with its model and inputs.
type serveRun struct {
	bases []*program
	m     *model
	c     *child
	addr  string
}

// setupServe generates the bases, trains the flat model, saves and
// reloads it, and starts the service process on it.
func setupServe(ctx context.Context, o options, w serveWorkload) (*serveRun, error) {
	bases, err := servePrograms(o.seed, w.stream, w.bases)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.workdir, "models")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, err := trainModel(ctx, dir, "flat-x86_64", flatConfig(), 4)
	if err != nil {
		return nil, err
	}
	c, err := startChild(ctx, "serve")
	if err != nil {
		return nil, err
	}
	var hello serveReply
	if err := c.call(m.Path, &hello); err != nil || hello.Addr == "" {
		_ = c.stop()
		return nil, fmt.Errorf("service process did not start: %v %s", err, hello.Error)
	}
	return &serveRun{bases: bases, m: m, c: c, addr: hello.Addr}, nil
}

// runServe is a serve workload.
func runServe(ctx context.Context, o options, w serveWorkload) error {
	reps := setupReps
	if o.traced {
		reps = 1
	}
	var started []*child
	defer func() {
		for _, c := range started {
			_ = c.stop() // every service process is stopped and waited for
		}
	}()
	s, setupS, err := timedSetup(reps, func() (*serveRun, error) {
		s, err := setupServe(ctx, o, w)
		if err == nil {
			started = append(started, s.c)
		}
		return s, err
	})
	if err != nil {
		return err
	}
	for _, c := range started[:len(started)-1] {
		if err := c.stop(); err != nil {
			return err
		}
	}
	started = started[len(started)-1:]

	refs, err := reference(ctx, s.m.CATI, s.bases)
	if err != nil {
		return err
	}
	rep := newReport(o.workload, o.seed, o.seconds, o.traced)
	rep.hdr.Models = []modelInfo{s.m.Info}
	g := newLoadgen(s.addr, &requestSource{seed: o.seed, bases: s.bases, refs: refs})
	defer g.close()
	mismatches := 0
	stats := func() (usage, error) {
		var r serveReply
		if err := s.c.call(serveCmd{Cmd: "stats"}, &r); err != nil {
			return usage{}, err
		}
		return r.Usage, nil
	}

	// Warm-up: connections, kernels, arenas.
	for _, r := range g.openLoop(ctx, w.rate, time.Second) {
		if r.Mismatch {
			mismatches++
		}
	}

	fixedDur := time.Duration(0.5 * float64(o.seconds) * float64(time.Second))
	if o.traced {
		fixedDur = time.Duration(0.3 * float64(o.seconds) * float64(time.Second))
	}
	u0, err := stats()
	if err != nil {
		return err
	}
	m0, err := scrape(s.addr)
	if err != nil {
		return err
	}
	recs := g.openLoop(ctx, w.rate, fixedDur)
	u1, err := stats()
	if err != nil {
		return err
	}
	m1, err := scrape(s.addr)
	if err != nil {
		return err
	}
	st := summarize(recs)
	counts := make([]int, len(s.bases))
	okN := 0
	var late []float64
	for _, r := range recs {
		if r.Mismatch {
			mismatches++
		}
		if r.OK {
			okN++
			counts[r.Base]++
		}
		if r.Sent {
			late = append(late, r.LateMs)
		}
	}
	used := u1.sub(u0)
	failed := st.Failed
	rep.add("requests", float64(st.Attempted), "count")
	rep.add("loadgen.late_ms_p99", percentile(late, 0.99), "ms")

	if o.traced {
		rep.add("runtime.gc_cpu_ratio", used.gcRatio(), "ratio")
		rep.add("runtime.alloc_mb_per_op", used.AllocBytes/1e6/float64(max(1, okN)), "MB")
		delta := func(k string) float64 { return m1[k] - m0[k] }
		rep.add("serve.batch.size_mean", delta("cati_serve_batch_size_sum")/math.Max(1, delta("cati_serve_batch_size_count")), "count")
		hits, misses := delta("cati_serve_cache_hits_total"), delta("cati_serve_cache_misses_total")
		rep.add("serve.cache.hit_ratio", hits/math.Max(1, hits+misses), "ratio")
		rep.add("serve.rejected_ratio", delta("cati_serve_rejected_total")/math.Max(1, delta("cati_serve_requests_total")), "ratio")

		gap, bad, err := tracedServe(ctx, o, w, s, g, fixedDur, rep)
		if err != nil {
			return err
		}
		mismatches += bad
		correct := mismatches == 0 && failed == 0
		if math.Abs(gap) > partsGapLimit {
			fmt.Fprintf(os.Stderr, "perfbench: parts-sum gate: stage spans and coalescing account for %.1f%% of serve.batch (limit ±%.0f%%)\n",
				100*(1-gap), 100*partsGapLimit)
			correct = false
		}
		if mismatches > 0 {
			fmt.Fprintln(os.Stderr, "perfbench:", w.name, mismatches, "responses differ from the reference transcript")
		}
		return rep.write(os.Stdout, correct, st.Attempted, failed+mismatches)
	}

	// Capacity: the highest ladder rate meeting the p99 limit without a
	// growing backlog. Failed and refused requests count as misses.
	// A step fails only when two probes in a row miss, so one burst from
	// another tenant of the host does not end the search low.
	probeDur := time.Duration(0.05 * float64(o.seconds) * float64(time.Second))
	probes := 0
	probe := func(rate float64) bool {
		probes++
		pr := g.openLoop(ctx, rate, probeDur)
		for _, r := range pr {
			if r.Mismatch {
				mismatches++
			}
		}
		time.Sleep(200 * time.Millisecond) // let a backlog drain before the next probe
		return meetsSLO(summarize(pr), w.limitMs)
	}
	maxRPS := w.ladder.highest(func(rate float64) bool { return probe(rate) || probe(rate) })
	final, err := stats()
	if err != nil {
		return err
	}
	correct := mismatches == 0 && failed == 0
	if mismatches > 0 {
		fmt.Fprintln(os.Stderr, "perfbench:", w.name, mismatches, "responses differ from the reference transcript")
	}
	p99 := windowedP99(recs, p99Windows)
	rep.add("setup_s", setupS, "s")
	rep.add("req_p50_ms", st.P50, "ms")
	rep.add("req_p99_ms", p99, "ms")
	rep.add("req_p99_ms_whole_phase", st.P99, "ms")
	rep.add("max_rps_at_slo", maxRPS, "1/s")
	rep.add("ladder_probes", float64(probes), "count")
	rep.add("throughput_per_s", maxRPS, "1/s")
	rep.add("p50_ms", st.P50, "ms")
	rep.add("tail_ms", p99, "ms")
	rep.add("cpu_ms_per_op", 1000*used.CPUSeconds/float64(max(1, okN)), "ms")
	rep.add("rss_peak_mb", final.MaxRSSMB, "MB")
	// Accuracy over the programs that were answered, each counted once, so
	// the random draw of programs does not weight it.
	for i, n := range counts {
		counts[i] = min(n, 1)
	}
	rep.add("var_accuracy", accuracy(refs, counts), "ratio")
	rep.add("error_ratio", float64(failed+mismatches)/float64(st.Attempted), "ratio")
	return rep.write(os.Stdout, correct, st.Attempted, failed+mismatches)
}

// tracedServe is the traced part of a serve run: the same fixed-rate
// phase with the service's trace collector on, the span breakdown, the
// tracing overhead from alternating untraced and traced closed loops, and
// the layer replay of the base programs. It returns the serve.batch parts
// gap and the number of mismatched answers.
func tracedServe(ctx context.Context, o options, w serveWorkload, s *serveRun, g *loadgen, dur time.Duration, rep *report) (float64, int, error) {
	var r serveReply
	if err := s.c.call(serveCmd{Cmd: "trace-on"}, &r); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	recs := g.openLoop(ctx, w.rate, dur)
	wall := time.Since(t0)
	path := filepath.Join(o.workdir, "spans.jsonl")
	if err := s.c.call(serveCmd{Cmd: "spans", Path: path}, &r); err != nil || r.Error != "" {
		return 0, 0, fmt.Errorf("span dump: %v %s", err, r.Error)
	}
	bad := 0
	for _, rc := range recs {
		if rc.Mismatch {
			bad++
		}
	}
	gap, err := serveSpans(path, recs, wall, rep)
	if err != nil {
		return 0, 0, err
	}

	// Tracing overhead: closed-loop throughput with the collector off and
	// on, alternated so drift hits both sides alike.
	var off, on []float64
	for k := 0; k < 3; k++ {
		for _, traced := range []bool{false, true} {
			cmd := "trace-off"
			if traced {
				cmd = "trace-on"
			}
			if err := s.c.call(serveCmd{Cmd: cmd}, &r); err != nil {
				return 0, 0, err
			}
			rps, b := g.closedLoop(ctx, 600*time.Millisecond)
			bad += b
			if traced {
				on = append(on, rps)
			} else {
				off = append(off, rps)
			}
		}
	}
	if err := s.c.call(serveCmd{Cmd: "trace-off"}, &r); err != nil {
		return 0, 0, err
	}
	rep.add("trace.overhead_ratio", (median(off)-median(on))/median(off), "ratio")

	log := &spanLog{epoch: time.Now()}
	cats := []*core.CATI{s.m.CATI}
	lt, err := replayLayers(ctx, cats, [][]*program{s.bases}, [][]*transcript{g.src.refs}, log)
	if err != nil {
		return 0, 0, err
	}
	if err := log.write(filepath.Join(o.workdir, "replay-spans.jsonl")); err != nil {
		return 0, 0, err
	}
	lt.addTo(rep, cats)
	gemmShapes(rep, s.m.CATI.Pipeline)
	return gap, bad + lt.mismatches, nil
}

// serveSpans derives the serve layer metrics from the service's span dump
// and returns the serve.batch parts gap: (Σ batch − Σ parts) / Σ batch,
// where a batch span's parts are its coalescing wait (start to the
// batch-dispatch event) and its five stage spans.
func serveSpans(path string, recs []reqRecord, wall time.Duration, rep *report) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	byTrace := make(map[string][]trace.SpanRecord)
	dec := json.NewDecoder(f)
	for {
		var s trace.SpanRecord
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return 0, err
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	usMs := func(us int64) float64 { return float64(us) / 1000 }
	var reqD, probe, queue, parse, batch, self []float64
	reqByTrace := make(map[string]float64)
	var batchSum, partSum int64
	var busy time.Duration
	for id, spans := range byTrace {
		var root *trace.SpanRecord
		for i := range spans {
			if spans[i].Name == "serve.request" && spans[i].Parent == "" {
				root = &spans[i]
			}
		}
		if root == nil {
			continue
		}
		reqD = append(reqD, usMs(root.DurUS))
		reqByTrace[id] = usMs(root.DurUS)
		children := root.DurUS
		q := 0.0
		var b *trace.SpanRecord
		for i := range spans {
			sp := &spans[i]
			if sp.Parent == root.SpanID {
				children -= sp.DurUS
			}
			switch sp.Name {
			case "serve.cache-probe":
				probe = append(probe, usMs(sp.DurUS))
			case "serve.queue-wait":
				q += usMs(sp.DurUS)
			case "serve.parse":
				parse = append(parse, usMs(sp.DurUS))
			case "serve.batch":
				b = sp
			}
		}
		queue = append(queue, q)
		self = append(self, usMs(children))
		if b == nil {
			continue
		}
		batch = append(batch, usMs(b.DurUS))
		batchSum += b.DurUS
		for _, e := range b.Events {
			if e.Name == "batch-dispatch" {
				partSum += e.Time.UnixMicro() - b.Start
			}
		}
		var stages []trace.SpanRecord
		for _, sp := range spans {
			if sp.Parent == b.SpanID && stageNames[sp.Name] {
				partSum += sp.DurUS
				stages = append(stages, sp)
			}
		}
		busy += stageExtent(stages)
	}
	var client []float64
	for _, r := range recs {
		if d, ok := reqByTrace[r.TraceID]; ok && r.OK {
			client = append(client, r.ClientMs-d)
		}
	}
	p := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentile(xs, q)
	}
	rep.add("serve.request.ms_p50", p(reqD, 0.5), "ms")
	rep.add("serve.cache_probe.ms_p50", p(probe, 0.5), "ms")
	rep.add("serve.queue_wait.ms_p99", p(queue, 0.99), "ms")
	rep.add("serve.parse.ms_p50", p(parse, 0.5), "ms")
	rep.add("serve.batch.ms_p50", p(batch, 0.5), "ms")
	rep.add("serve.self.ms_p50", p(self, 0.5), "ms")
	rep.add("loadgen.client_ms_p50", p(client, 0.5), "ms")
	rep.add("traced_requests", float64(len(reqD)), "count")
	rep.add("core.batch.busy_ratio", busy.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	gap := 0.0
	if batchSum > 0 {
		gap = float64(batchSum-partSum) / float64(batchSum)
	}
	rep.add("core.parts_gap_ratio", gap, "ratio")
	return gap, nil
}
