package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"repro/internal/gemm"
)

// metricDef names one metric of the final result line and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a --trace 0 run reports, on every workload.
// Each is defined for every workload; README.md gives the per-workload
// meaning (for example throughput_per_s is bins/s on corpus-tree and the
// highest rate meeting the latency limit on serve-cold).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
	{"var_accuracy", "ratio"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload. A
// layer the workload never reaches (the tree stage networks on the flat
// serve model, the serve layers on corpus-tree) reads 0.
var perLayer = []metricDef{
	{"elfx.read.ms_per_bin", "ms"},
	{"vareco.recover.ms_per_bin", "ms"},
	{"vareco.recover.insts_per_bin", "count"},
	{"vuc.extract.ms_per_bin", "ms"},
	{"vuc.extract.vucs_per_bin", "count"},
	{"classify.embed.ms_per_bin", "ms"},
	{"classify.embed.alloc_mb_per_bin", "MB"},
	{"classify.embed.unknown_token_ratio", "ratio"},
	{"classify.predict.ms_per_bin", "ms"},
	{"classify.predict.alloc_mb_per_bin", "MB"},
	{"classify.predict.net_evals_per_vuc", "count"},
	{"classify.predict.useful_eval_ratio", "ratio"},
	{"classify.vote.ms_per_bin", "ms"},
	{"classify.vote.vars_per_bin", "count"},
	{"nn.stage1.ms_per_kvuc", "ms"},
	{"nn.stage2-1.ms_per_kvuc", "ms"},
	{"nn.stage2-2.ms_per_kvuc", "ms"},
	{"nn.stage3-1.ms_per_kvuc", "ms"},
	{"nn.stage3-2.ms_per_kvuc", "ms"},
	{"nn.stage3-3.ms_per_kvuc", "ms"},
	{"nn.flat.ms_per_kvuc", "ms"},
	{"nn.flops_per_vuc", "count"},
	{"nn.predict.gflops", "GFLOP/s"},
	{"gemm.conv1.gflops", "GFLOP/s"},
	{"gemm.conv2.gflops", "GFLOP/s"},
	{"gemm.dense1.gflops", "GFLOP/s"},
	{"gemm.dense2.gflops", "GFLOP/s"},
	{"core.batch.busy_ratio", "ratio"},
	{"core.parts_gap_ratio", "ratio"},
	{"serve.request.ms_p50", "ms"},
	{"serve.cache_probe.ms_p50", "ms"},
	{"serve.queue_wait.ms_p99", "ms"},
	{"serve.parse.ms_p50", "ms"},
	{"serve.batch.ms_p50", "ms"},
	{"serve.self.ms_p50", "ms"},
	{"serve.batch.size_mean", "count"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.rejected_ratio", "ratio"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.client_ms_p50", "ms"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"trace.overhead_ratio", "ratio"},
}

// modelInfo identifies one model a run used. Fingerprint is the sealed
// artifact's hash as core reports it; Weights hashes the decoded weights
// and vocabulary, which (unlike the gob-encoded artifact) is the same for
// the same training inputs on every run.
type modelInfo struct {
	Name        string `json:"name"`
	Arch        string `json:"arch"`
	Fingerprint string `json:"fingerprint"`
	Weights     string `json:"weights"`
}

// header is the first record of every run: where and on what it ran.
type header struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    int         `json:"seconds"`
	Traced     bool        `json:"traced"`
	Host       string      `json:"host"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	GEMM       string      `json:"gemm_backend"`
	Models     []modelInfo `json:"models"`
}

// row is one measured value: the record schema every metric is printed in.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's records and renders them.
type report struct {
	hdr  header
	rows []row
	// values holds the result-line metrics by name.
	values map[string]float64
}

func newReport(workload string, seed int64, seconds int, traced bool) *report {
	host, _ := os.Hostname() // an unnamed host is still a valid header
	return &report{
		hdr: header{
			Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
			Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GEMM: gemm.Active().String(),
		},
		values: make(map[string]float64),
	}
}

// add records a row; when the name is one of the result-line metrics it
// also becomes that metric's value.
func (r *report) add(metric string, value float64, unit string) {
	r.rows = append(r.rows, row{Workload: r.hdr.Workload, Metric: metric, Value: value, Unit: unit})
	r.values[metric] = value
}

// write prints the header, the rows and the result line. The result line
// carries every end-to-end metric (untraced run) or every per-layer metric
// (traced run); a per-layer metric the workload never reaches reads 0, a
// missing end-to-end metric is a bug.
func (r *report) write(w io.Writer, correct bool, attempted, failed int) error {
	defs := endToEnd
	if r.hdr.Traced {
		defs = perLayer
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"header": r.hdr}); err != nil {
		return err
	}
	for _, rw := range r.rows {
		if err := enc.Encode(map[string]any{"row": rw}); err != nil {
			return err
		}
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !r.hdr.Traced {
			missing = append(missing, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("end-to-end metrics not measured: %v", missing)
	}
	return enc.Encode(res)
}
