# Developer entry points. `make check` is the pre-commit gate: lint (gofmt
# + vet + stderr-print hygiene), build, full test suite, coverage summary,
# the race detector over the concurrent packages, a short fuzz smoke over
# the hostile-input parsers, and a short answer-checked perfbench run.

GO ?= go
GOFMT ?= gofmt
RACE_PKGS = ./internal/par ./internal/obs ./internal/telemetry ./internal/trace ./internal/nn ./internal/word2vec ./internal/classify ./internal/core ./internal/serve ./internal/fleet ./internal/bulkq ./internal/isa/...
# FUZZTIME bounds each fuzz target during `make fuzz`; the committed seed
# corpus always runs in full via plain `go test`.
FUZZTIME ?= 5s

.PHONY: check build test lint vet race fuzz cover purego bench bench-json bench-fleet bench-kernels bench-kernels-smoke bench-trace bench-trace-smoke bench-bulk bench-bulk-smoke perfbench-check

check: lint build test purego cover race fuzz bench-kernels-smoke bench-trace-smoke bench-bulk-smoke perfbench-check

# lint fails when any file is unformatted (gofmt -l prints it), vet
# complains, or a CLI writes raw diagnostics to stderr instead of routing
# them through the shared slog handler (cmd/internal/cliflags.Setup).
lint: vet
	@out="$$($(GOFMT) -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: unformatted files:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn 'fmt\.Fprintf(os\.Stderr' cmd/ --include='*.go' | grep -v '^cmd/internal/cliflags/' || true)"; \
	if [ -n "$$out" ]; then \
		echo "lint: raw stderr prints in cmd/ (use the slog logger from Setup):"; echo "$$out"; exit 1; \
	fi
	@out="$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/vuc ./internal/classify ./internal/nn ./internal/core | grep 'repro/internal/asm' || true)"; \
	if [ -n "$$out" ]; then \
		echo "lint: ISA-neutral packages must not import repro/internal/asm (use internal/isa):"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn 'time\.Now' internal/obs --include='*.go' | grep -v '_test\.go' || true)"; \
	if [ -n "$$out" ]; then \
		echo "lint: span timing in internal/obs must go through internal/trace (trace.NewTimer / span durations), not raw time.Now():"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn 'os\.Remove\|os\.Rename' internal/serve internal/fleet cmd/catiserve --include='*.go' | grep -v '_test\.go' || true)"; \
	if [ -n "$$out" ]; then \
		echo "lint: only internal/bulkq may remove or rename queue files (spool blobs and the journal are crash-recovery state):"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order each run,
# flushing out inter-test state dependence before it reaches CI.
test:
	$(GO) test -shuffle=on ./...

# purego re-runs the math-core packages with the JIT compiled out,
# proving the portable fallback path stays green on its own.
purego:
	$(GO) test -tags purego ./internal/gemm ./internal/nn

# cover runs the test suite once with coverage and prints the total
# statement coverage. The profile is written outside the repo root so a
# coverage run never leaves scratch files for git to pick up.
cover:
	@profile="$$(mktemp -t cati-cover.XXXXXX)"; \
	$(GO) test -coverprofile="$$profile" ./... || { rm -f "$$profile"; exit 1; }; \
	$(GO) tool cover -func="$$profile" | tail -n 1; \
	echo "full profile: $$profile (go tool cover -html=$$profile)"

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# Fuzz smoke: each hostile-input target runs for FUZZTIME under the race
# detector. Any panic or data race the fuzzer finds fails the build; fix
# it and commit the minimized input as a regression test.
fuzz:
	$(GO) test -race -run XXX -fuzz FuzzElfRead -fuzztime $(FUZZTIME) ./internal/elfx
	$(GO) test -race -run XXX -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/asm
	$(GO) test -race -run XXX -fuzz FuzzDecodeRV64 -fuzztime $(FUZZTIME) ./internal/isa/rv64
	$(GO) test -race -run XXX -fuzz FuzzInferBinary -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -race -run XXX -fuzz FuzzGEMMEquivalence -fuzztime $(FUZZTIME) ./internal/gemm
	$(GO) test -race -run XXX -fuzz FuzzBulkIngest -fuzztime $(FUZZTIME) ./internal/bulkq

# Parallel-core micro-benchmarks (worker sweep 1/2/4/8).
bench:
	$(GO) test ./internal/nn -run XXX -bench 'Parallel' -benchmem

# Machine-readable timing records for the parallel compute core.
bench-json:
	$(GO) run ./cmd/catibench -bench-json BENCH_parallel.json

# Sharded fleet router sweep under fault injection (1..3 replicas):
# fails unless every client request succeeds while replicas are slowed,
# truncated, refused and killed mid-run. Writes BENCH_fleet.json.
bench-fleet:
	$(GO) run ./cmd/catibench -fleet-bench BENCH_fleet.json -chaos

# Kernel-backend sweep (naive reference vs portable/blocked/jit in f32 and
# int8) plus the int8-vs-f32 accuracy delta; writes BENCH_kernels.json.
bench-kernels:
	$(GO) run ./cmd/catibench -bench-kernels BENCH_kernels.json -bench-iters 10

# One-iteration smoke of the kernel sweep: exercises every backend x dtype
# dispatch path end to end without committing to benchmark-length runs.
bench-kernels-smoke:
	$(GO) run ./cmd/catibench -bench-kernels /dev/null -bench-iters 1

# Tracing-overhead sweep: the serve path with tracing disabled vs enabled,
# committed as BENCH_trace.json. The disabled path must stay within 2% of
# the no-tracing baseline or the run fails — tracing is free until opted in.
bench-trace:
	$(GO) run ./cmd/catibench -trace-bench BENCH_trace.json

# Smoke mode of the overhead sweep for `make check` / CI: a short window,
# same <2% disabled-path gate, nothing written into the tree.
bench-trace-smoke:
	$(GO) run ./cmd/catibench -trace-bench /dev/null -serve-duration 500ms

# Bulk-queue drain sweep (job size x workers) plus kill-and-resume points
# that hard-stop the daemon mid-job and restart it on the same queue
# directory; fails unless the restart resumes work. Writes BENCH_bulk.json.
bench-bulk:
	$(GO) run ./cmd/catibench -bulk-bench BENCH_bulk.json

# Smoke mode of the bulk sweep for `make check` / CI: one drain point and
# one kill-and-resume point, nothing written into the tree.
bench-bulk-smoke:
	$(GO) run ./cmd/catibench -bulk-bench /dev/null -bulk-smoke

# The benchmark is its own Go module (perfbench/), which `go list ./...`
# at the root skips, so an API change it depends on or a changed answer
# would otherwise surface only when the benchmark runs. This target vets
# and short-tests the module, then runs each workload for 2 s with
# tracing on (which adds the serve parts-sum gate). perfbench exits 0 even
# on a wrong answer, so the last line of each run must read
# "correct":true.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...
	@for w in corpus-tree serve-cold; do \
		out="$$(bash perfbench/run.sh --workload $$w --seconds 2 --trace 1)" || exit 1; \
		last="$$(printf '%s\n' "$$out" | tail -n 1)"; \
		case "$$last" in \
		*'"correct":true'*) echo "perfbench $$w: correct" ;; \
		*) echo "perfbench $$w: answers not correct:"; echo "$$last"; exit 1 ;; \
		esac; \
	done
