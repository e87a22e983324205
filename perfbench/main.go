// Command perfbench is CATI's benchmark. It runs one named workload
// against the real pipeline, checks every answer against a reference
// transcript, prints each measurement as a (workload, metric, value, unit)
// row, and ends with one JSON result line:
//
//	bash perfbench/run.sh --workload corpus-tree --seed 1 --seconds 40 --trace 0
//
// Workloads:
//
//	corpus-tree  in-process `cati infer` over a fixed x86-64 + RV64 corpus
//	             with paper-dimension six-stage tree models
//	serve-cold   open loop against catiserve's service, every image new
//
// With --trace 0 the result line holds the end-to-end metrics, measured
// with tracing off; with --trace 1 it holds the per-layer metrics of a
// traced run. README.md defines every metric.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	workdir  string
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == "child" {
		if err := runChild(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	trace := 0
	fs.StringVar(&o.workload, "workload", "", "workload: corpus-tree or serve-cold")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 40, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for generated inputs, models and span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	o.traced = trace == 1
	o.workdir = filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	// Inputs and models are regenerated from the seed on every run; only
	// the span dumps of a traced run are kept.
	if o.traced {
		defer os.RemoveAll(filepath.Join(o.workdir, "images"))
		defer os.RemoveAll(filepath.Join(o.workdir, "models"))
	} else {
		defer os.RemoveAll(o.workdir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch o.workload {
	case "corpus-tree":
		return runCorpus(ctx, o)
	case "serve-cold":
		return runServe(ctx, o, serveCold)
	}
	return fmt.Errorf("unknown --workload %q (corpus-tree, serve-cold)", o.workload)
}
