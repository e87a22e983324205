// Command catibench regenerates the paper's tables and figures (see
// DESIGN.md's per-experiment index) and prints them.
//
// Usage:
//
//	catibench [-scale default|quick] all
//	catibench table1 table3 table4 table5 table6 table7
//	catibench fig6 debin compilerid timing clustering
//	catibench ablation-window ablation-clamp ablation-generalize
//	catibench ablation-embed ablation-flat crossisa
//	catibench -bench-json BENCH_parallel.json [-workers N]
//	catibench -bench-kernels BENCH_kernels.json [-bench-iters N]
//	catibench -serve-url http://host:8090/v1/infer -serve-concurrency 16
//	catibench -fleet-bench BENCH_fleet.json -chaos
//	catibench -bulk-bench BENCH_bulk.json
//
// -serve-url points the closed-loop load generator (-serve-concurrency
// clients for -serve-duration) at an already-running catiserve and
// prints one record of RPS and p50/p95/p99 latency to stdout. The
// uncached serve path's own benchmark is perfbench's serve-cold
// workload.
//
// -fleet-bench measures the sharded fleet router (internal/fleet): for
// each fleet size up to -fleet-replicas it starts that many loopback
// catiserve replicas behind fault-injecting proxies, fronts them with a
// router, and runs the same closed loop through it. With -chaos a fault
// agent sweeps latency spikes, truncated responses, refused connections
// and a mid-run replica kill/restart across the proxies during the
// measurement — and the run fails unless every client request still
// succeeded and the killed replica rejoined.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "catibench:", err)
		os.Exit(1)
	}
}

var order = []string{
	"table1", "clustering", "table3", "table4", "table5", "table6", "table7",
	"fig6", "debin", "orphans", "compilerid", "confusions", "timing",
}

func run(args []string) error {
	fs := flag.NewFlagSet("catibench", flag.ContinueOnError)
	scale := fs.String("scale", "default", "experiment scale: default, quick or ablation")
	benchJSON := fs.String("bench-json", "", "run the parallel-core benchmark and write JSON records to this file (e.g. BENCH_parallel.json), then exit")
	benchKernels := fs.String("bench-kernels", "", "run the math-kernel sweep (portable/blocked/jit x f32/int8) and write JSON records to this file (e.g. BENCH_kernels.json), then exit")
	benchIters := fs.Int("bench-iters", 5, "timed iterations per point for -bench-kernels")
	serveURL := fs.String("serve-url", "", "load-test a running catiserve at this /v1/infer URL and print the JSON record, then exit")
	serveConc := fs.Int("serve-concurrency", 8, "closed-loop clients for -serve-url / -fleet-bench / -trace-bench")
	serveDur := fs.Duration("serve-duration", 3*time.Second, "measurement window per configuration for -serve-url / -fleet-bench / -trace-bench")
	fleetBench := fs.String("fleet-bench", "", "run the sharded-fleet router sweep (1 to -fleet-replicas loopback replicas behind a router) and write JSON records to this file (e.g. BENCH_fleet.json), then exit")
	traceBench := fs.String("trace-bench", "", "run the tracing-overhead sweep (serve path with tracing off vs on, plus the disabled fast-path microbenchmark) and write JSON records to this file (e.g. BENCH_trace.json), then exit; fails if the disabled path costs over -trace-overhead-limit")
	traceLimit := fs.Float64("trace-overhead-limit", 2.0, "maximum tracing-disabled overhead for -trace-bench, percent of request latency")
	bulkBench := fs.String("bulk-bench", "", "run the bulk-queue sweep (job size x workers, plus kill-and-resume points that hard-stop the daemon mid-job and restart it on the same queue directory) and write JSON records to this file (e.g. BENCH_bulk.json), then exit")
	bulkSmoke := fs.Bool("bulk-smoke", false, "shrink the -bulk-bench grid to one drain point and one kill-and-resume point (the make check gate)")
	fleetReplicas := fs.Int("fleet-replicas", 3, "maximum fleet size for -fleet-bench")
	chaos := fs.Bool("chaos", false, "inject faults during -fleet-bench (latency spikes, truncated responses, refused connections, a mid-run replica kill/restart) and require zero failed client requests")
	rt := cliflags.AddRuntime(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := rt.Setup()
	if err != nil {
		return err
	}

	if *benchJSON != "" {
		return runParallelBench(log, *benchJSON, rt.Workers)
	}
	if *benchKernels != "" {
		return runKernelBench(log, *benchKernels, *benchIters)
	}
	if *serveURL != "" || *fleetBench != "" || *traceBench != "" || *bulkBench != "" {
		ctx, stop := rt.Context()
		defer stop()
		if *bulkBench != "" {
			return runBulkBench(ctx, log, *bulkBench, *bulkSmoke)
		}
		if *traceBench != "" {
			return runTraceBench(ctx, log, *traceBench, *serveConc, *serveDur, *traceLimit)
		}
		if *fleetBench != "" {
			return runFleetBench(ctx, log, *fleetBench, *serveConc, *serveDur, *fleetReplicas, *chaos)
		}
		return runServeURL(ctx, log, *serveURL, *serveConc, *serveDur)
	}

	var s experiments.Scale
	switch *scale {
	case "default":
		s = experiments.DefaultScale()
	case "quick":
		s = experiments.QuickScale()
	case "ablation":
		s = experiments.AblationScale()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	ctx, stop := rt.Context()
	defer stop()
	trace := rt.NewTrace()
	defer cliflags.PrintTrace(os.Stderr, trace)

	s.Cfg.Workers = rt.Workers
	s.Cfg.Trace = trace
	s.Cfg.Hook = cliflags.StageHook(log)
	env := experiments.NewEnv(s)
	env.Ctx = ctx

	ids := fs.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = order
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		tab, err := runOne(env, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(tab.Format())
		log.Info("experiment done", "id", id, "elapsed", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func runOne(env *experiments.Env, id string) (*experiments.Table, error) {
	switch id {
	case "table1":
		return env.Table1()
	case "table3":
		return env.Table3()
	case "table4":
		return env.Table4()
	case "table5":
		return env.Table5()
	case "table6":
		return env.Table6()
	case "table7":
		return env.Table7()
	case "fig6":
		return env.Figure6(150)
	case "debin":
		return env.DebinComparison()
	case "compilerid":
		return env.CompilerID()
	case "timing":
		return env.Timing()
	case "clustering":
		return env.Clustering()
	case "confusions":
		return env.Confusions()
	case "orphans":
		return env.Orphans()
	case "ablation-window":
		return env.AblationWindow([]int{0, 2, 5, 10})
	case "ablation-clamp":
		return env.AblationClamp([]float64{0, 0.8, 0.9, 0.95})
	case "ablation-generalize":
		return env.AblationGeneralize()
	case "ablation-embed":
		return env.AblationEmbedDim([]int{8, 16, 32})
	case "ablation-flat":
		return env.AblationFlatVsTree()
	case "crossisa":
		return env.CrossISA()
	default:
		return nil, fmt.Errorf("unknown experiment (see catibench -h)")
	}
}
