package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/elfx"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The inference process is a child of the benchmark, so that its CPU time
// and peak RSS are the inference's alone: set-up (training, generation)
// and load generation run in the parent. Parent and child speak JSON
// lines over the child's stdin and stdout.

// child is a running inference process.
type child struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startChild runs this executable in child mode.
func startChild(ctx context.Context, mode string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "child", mode)
	cmd.Stderr = os.Stderr
	// The child must not outlive the benchmark, even if the parent dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s child: %w", mode, err)
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	return &child{cmd: cmd, in: in, out: sc}, nil
}

// send writes one JSON line to the child.
func (c *child) send(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = c.in.Write(append(b, '\n'))
	return err
}

// recv reads the child's next JSON line into v.
func (c *child) recv(v any) error {
	if !c.out.Scan() {
		if err := c.out.Err(); err != nil {
			return err
		}
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(c.out.Bytes(), v)
}

// call sends a command and reads its reply.
func (c *child) call(cmd any, reply any) error {
	if err := c.send(cmd); err != nil {
		return err
	}
	return c.recv(reply)
}

// stop closes the child's stdin (its signal to finish) and waits for it;
// it kills a child that has not exited within the grace period.
func (c *child) stop() error {
	_ = c.in.Close() // the child sees EOF either way
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("child did not exit; killed")
	}
}

// runChild is the child-mode entry point.
func runChild(mode string) error {
	switch mode {
	case "infer":
		return inferChild(os.Stdin, os.Stdout)
	case "serve":
		return serveChild(os.Stdin, os.Stdout)
	}
	return fmt.Errorf("unknown child mode %q", mode)
}

// inferJob is the corpus-tree inference process's work order.
type inferJob struct {
	Models []string `json:"models"`
	// Images and Digests are per model: the images that model infers and
	// the reference transcript digest of each.
	Images  [][]string `json:"images"`
	Digests [][]string `json:"digests"`
	// Seconds is the measured window: batch passes and latency rounds
	// alternate until it is over.
	Seconds float64 `json:"seconds"`
	// Traced replaces the rounds with tracedPasses untraced and as many
	// traced batch passes, alternating.
	Traced bool `json:"traced"`
}

// minRounds is the least number of rounds (one batch pass and one latency
// round each) an untraced run makes, however short its window.
const minRounds = 3

// tracedPasses is the number of batch passes on each side of the traced
// run's overhead comparison; even, so each side goes first equally often.
const tracedPasses = 4

// inferReport is what the inference process measured.
type inferReport struct {
	// PassSeconds and PassCPUSeconds hold, per model, the wall and CPU
	// time of each of its batches: one InferBatch over that model's images
	// per pass.
	PassSeconds    [][]float64 `json:"pass_s"`
	PassCPUSeconds [][]float64 `json:"pass_cpu_s"`
	BinsPerPass    int         `json:"bins_per_pass"`
	// LatencyMs holds each binary's single-binary latencies.
	LatencyMs  [][]float64 `json:"latency_ms"`
	Ops        int         `json:"ops"`
	Failed     int         `json:"failed"`
	Mismatches int         `json:"mismatches"`
	FirstError string      `json:"first_error,omitempty"`
	Usage      usage       `json:"usage"`
	// Traced run only.
	TracedPassSeconds []float64 `json:"traced_pass_s,omitempty"`
	BusyRatio         float64   `json:"busy_ratio,omitempty"`
}

// check records one binary's outcome against its reference digest.
func (r *inferReport) check(vars []core.InferredVar, err error, want, name string) {
	r.Ops++
	switch {
	case err != nil:
		r.Failed++
		if r.FirstError == "" {
			r.FirstError = fmt.Sprintf("%s: %v", name, err)
		}
	case digestOf(records(vars)) != want:
		r.Mismatches++
		if r.FirstError == "" {
			r.FirstError = fmt.Sprintf("%s: transcript differs from the reference", name)
		}
	}
}

// inferChild runs the corpus-tree phases: closed-loop InferBatch passes
// over the whole corpus, then InferImageCtx one binary at a time.
func inferChild(in io.Reader, out io.Writer) error {
	var job inferJob
	if err := json.NewDecoder(in).Decode(&job); err != nil {
		return fmt.Errorf("infer child: job: %w", err)
	}
	ctx := context.Background()
	models := make([]*core.CATI, len(job.Models))
	images := make([][][]byte, len(job.Models))
	rep := &inferReport{}
	for i, path := range job.Models {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if models[i], err = core.Load(data); err != nil {
			return err
		}
		for _, p := range job.Images[i] {
			img, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			images[i] = append(images[i], img)
		}
		rep.BinsPerPass += len(images[i])
	}

	// pass parses every image and runs one InferBatch per model, and
	// returns each model's wall and CPU time; only the parse and the batch
	// calls are timed, the transcript check follows.
	pass := func(binCtx func(i int) context.Context) (took, cpu []float64) {
		for mi, m := range models {
			c0 := readUsage().CPUSeconds
			t0 := time.Now()
			bins := make([]*elfx.Binary, len(images[mi]))
			errs := make([]error, len(bins))
			for i, img := range images[mi] {
				bins[i], errs[i] = elfx.Read(img)
			}
			res, err := m.InferBatchOpts(ctx, bins, core.BatchOptions{BinContext: binCtx})
			took = append(took, time.Since(t0).Seconds())
			cpu = append(cpu, readUsage().CPUSeconds-c0)
			for i := range bins {
				switch {
				case errs[i] != nil:
					rep.check(nil, errs[i], "", job.Images[mi][i])
				case err != nil:
					rep.check(nil, err, "", job.Images[mi][i])
				default:
					rep.check(res[i].Vars, res[i].Err, job.Digests[mi][i], job.Images[mi][i])
				}
			}
		}
		return took, cpu
	}

	// Warm-up, untimed and unchecked: the GEMM kernels, the scratch arenas
	// and the worker pool, on the first two binaries of each model.
	for mi, m := range models {
		for _, img := range images[mi][:min(2, len(images[mi]))] {
			if _, err := m.InferImageCtx(ctx, img); err != nil {
				return err
			}
		}
	}
	rep.PassSeconds = make([][]float64, len(models))
	rep.PassCPUSeconds = make([][]float64, len(models))
	if job.Traced {
		traced(rep, pass)
	} else {
		// Rounds of one batch pass and one latency round over the corpus
		// (InferImageCtx one binary at a time, interleaving the two
		// models) until the window is over. Alternating spreads both
		// phases' samples over the whole window, so a burst of load from
		// another tenant of the host cannot cover all of either.
		rep.LatencyMs = make([][]float64, rep.BinsPerPass)
		u0 := readUsage()
		start := time.Now()
		for round := 0; round < minRounds || time.Since(start).Seconds() < job.Seconds; round++ {
			took, cpu := pass(nil)
			for mi := range models {
				rep.PassSeconds[mi] = append(rep.PassSeconds[mi], took[mi])
				rep.PassCPUSeconds[mi] = append(rep.PassCPUSeconds[mi], cpu[mi])
			}
			for i := 0; i < rep.BinsPerPass; i++ {
				mi, ii := i%len(models), i/len(models)
				if ii >= len(images[mi]) {
					continue
				}
				t0 := time.Now()
				vars, err := models[mi].InferImageCtx(ctx, images[mi][ii])
				rep.LatencyMs[i] = append(rep.LatencyMs[i], ms(time.Since(t0)))
				rep.check(vars, err, job.Digests[mi][ii], job.Images[mi][ii])
			}
		}
		rep.Usage = readUsage().sub(u0)
	}
	return json.NewEncoder(out).Encode(rep)
}

// traced alternates untraced and traced batch passes. The untraced ones
// give the runtime counters; the traced ones run with a collector
// installed and hand each binary a root span, whose stage spans give the
// binary's wall time inside the batch.
func traced(rep *inferReport, pass func(func(int) context.Context) (took, cpu []float64)) {
	workers := par.Workers(0)
	var busy time.Duration
	var wall float64
	var used usage
	untraced := func() {
		trace.SetDefault(nil)
		u0 := readUsage()
		took, _ := pass(nil)
		for mi, d := range took {
			rep.PassSeconds[mi] = append(rep.PassSeconds[mi], d)
		}
		u := readUsage().sub(u0)
		used.CPUSeconds += u.CPUSeconds
		used.GCCPU += u.GCCPU
		used.BusyCPU += u.BusyCPU
		used.AllocBytes += u.AllocBytes
	}
	// One untimed pass first, so the arenas' growth to full batch shapes
	// lands on neither side; then alternate which side goes first, so
	// drift hits both alike.
	pass(nil)
	for k := 0; k < tracedPasses; k++ {
		if k%2 == 0 {
			untraced()
		}
		col := trace.NewCollector(trace.Config{MaxTraces: 1 << 16})
		trace.SetDefault(col)
		var mu sync.Mutex // BinContext runs on the pool's goroutines
		var roots []*trace.Span
		took, _ := pass(func(int) context.Context {
			_, sp := trace.Start(context.Background(), "bench.binary")
			mu.Lock()
			roots = append(roots, sp)
			mu.Unlock()
			return trace.ContextWithSpan(context.Background(), sp)
		})
		trace.SetDefault(nil)
		for _, sp := range roots {
			sp.End()
			busy += stageExtent(col.Get(sp.TraceID()))
		}
		rep.TracedPassSeconds = append(rep.TracedPassSeconds, sum(took))
		wall += sum(took)
		if k%2 == 1 {
			untraced()
		}
	}
	rep.Usage = used
	if wall > 0 {
		rep.BusyRatio = busy.Seconds() / (wall * float64(workers))
	}
}

// stageNames are the pipeline's stage spans.
var stageNames = map[string]bool{"recover": true, "extract": true, "embed": true, "predict": true, "vote": true}

// stageExtent is the wall time from the first stage span's start to the
// last one's end.
func stageExtent(spans []trace.SpanRecord) time.Duration {
	var lo, hi int64
	for _, s := range spans {
		if !stageNames[s.Name] {
			continue
		}
		if lo == 0 || s.Start < lo {
			lo = s.Start
		}
		if end := s.Start + s.DurUS; end > hi {
			hi = end
		}
	}
	return time.Duration(hi-lo) * time.Microsecond
}

// serveCmd is one parent→server-process command.
type serveCmd struct {
	Cmd  string `json:"cmd"` // "stats", "trace-on", "trace-off", "spans"
	Path string `json:"path,omitempty"`
}

// serveReply answers a serveCmd.
type serveReply struct {
	Addr  string `json:"addr,omitempty"`
	Usage usage  `json:"usage"`
	Error string `json:"error,omitempty"`
}

// serveChild runs catiserve's service in-process with its defaults (cache
// on, micro-batching on, metrics on) and answers commands on stdin until
// EOF, then drains and exits. Tracing is off unless the parent turns it on.
func serveChild(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	enc := json.NewEncoder(out)
	var model string
	if !sc.Scan() {
		return fmt.Errorf("serve child: no model path")
	}
	if err := json.Unmarshal(sc.Bytes(), &model); err != nil {
		return fmt.Errorf("serve child: model path: %w", err)
	}
	telemetry.SetEnabled(true)
	srv, err := serve.New(serve.Config{
		ModelPath: model,
		Log:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // exiting anyway; the parent only needs the process gone
	}()
	if err := enc.Encode(serveReply{Addr: srv.Addr}); err != nil {
		return err
	}
	for sc.Scan() {
		var cmd serveCmd
		if err := json.Unmarshal(sc.Bytes(), &cmd); err != nil {
			return err
		}
		reply := serveReply{}
		switch cmd.Cmd {
		case "stats":
		case "trace-on":
			trace.SetDefault(trace.NewCollector(trace.Config{MaxTraces: 1 << 20}))
		case "trace-off":
			trace.SetDefault(nil)
		case "spans":
			if err := dumpSpans(trace.Default(), cmd.Path); err != nil {
				reply.Error = err.Error()
			}
		default:
			reply.Error = "unknown command " + cmd.Cmd
		}
		reply.Usage = readUsage()
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
	return sc.Err()
}

// dumpSpans writes every span the collector holds to path as JSON lines.
func dumpSpans(c *trace.Collector, path string) error {
	if c == nil {
		return fmt.Errorf("tracing is off")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sum := range c.Recent(0) {
		id, ok := trace.ParseTraceID(sum.TraceID)
		if !ok {
			continue
		}
		for _, s := range c.Get(id) {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
