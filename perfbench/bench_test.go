package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// imageSHA is the hex SHA-256 of an image.
func imageSHA(img []byte) string {
	sum := sha256.Sum256(img)
	return hex.EncodeToString(sum[:])
}

// shas lists the image SHA-256s of a program set.
func shas(progs []*program) []string {
	out := make([]string, len(progs))
	for i, p := range progs {
		out[i] = imageSHA(p.Image)
	}
	return out
}

func corpusSHAs(t *testing.T, seed int64) []string {
	t.Helper()
	progs, err := corpusPrograms(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ps := range progs {
		out = append(out, shas(ps)...)
	}
	return out
}

func TestSameSeedSameImages(t *testing.T) {
	if a, b := corpusSHAs(t, 3), corpusSHAs(t, 3); !reflect.DeepEqual(a, b) {
		t.Fatal("corpus images differ between two runs with the same seed")
	}
	a, err := servePrograms(3, serveCold.stream, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := servePrograms(3, serveCold.stream, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shas(a), shas(b)) {
		t.Fatal("serve base images differ between two runs with the same seed")
	}
}

func TestDifferentSeedDifferentImages(t *testing.T) {
	a, b := corpusSHAs(t, 3), corpusSHAs(t, 4)
	seen := make(map[string]bool)
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if seen[s] {
			t.Fatalf("seeds 3 and 4 share corpus image %s", s)
		}
	}
	c, err := servePrograms(3, serveCold.stream, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := servePrograms(4, serveCold.stream, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(shas(c), shas(d)) {
		t.Fatal("seeds 3 and 4 draw the same serve base programs")
	}
}

func TestSameSeedSameModels(t *testing.T) {
	ctx := context.Background()
	train := func(name string, cfgArch string, tree bool) string {
		cfg := flatConfig()
		if tree {
			cfg = treeConfig(cfgArch)
		}
		m, err := trainModel(ctx, t.TempDir(), name, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		return m.Info.Weights
	}
	if a, b := train("flat", "x86_64", false), train("flat", "x86_64", false); a != b {
		t.Fatalf("flat model weights differ: %s vs %s", a, b)
	}
	if testing.Short() {
		t.Skip("tree model training skipped in -short mode")
	}
	if a, b := train("tree", "rv64", true), train("tree", "rv64", true); a != b {
		t.Fatalf("tree model weights differ: %s vs %s", a, b)
	}
}

// TestNonceImagesGiveTheSameAnswer pins the serve-cold input trick: a
// nonce trailer changes the image's SHA-256 but not the pipeline's answer.
func TestNonceImagesGiveTheSameAnswer(t *testing.T) {
	ctx := context.Background()
	m, err := trainModel(ctx, t.TempDir(), "flat", flatConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	bases, err := servePrograms(5, serveCold.stream, 3)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := reference(ctx, m.CATI, bases)
	if err != nil {
		t.Fatal(err)
	}
	src := &requestSource{seed: 5, bases: bases, refs: refs}
	seen := make(map[string]bool)
	for i := int64(0); i < 6; i++ {
		img, base := src.request(1, i)
		if sha := imageSHA(img); seen[sha] {
			t.Fatalf("request %d repeats an image", i)
		} else {
			seen[sha] = true
		}
		vars, err := m.CATI.InferImageCtx(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestOf(records(vars)); got != refs[base].Digest {
			t.Fatalf("request %d: transcript %s, reference %s", i, got, refs[base].Digest)
		}
	}
}

// recsWith builds n fast successful requests with the first failed ones
// failed (refused, errored or never sent).
func recsWith(n, failed int) []reqRecord {
	recs := make([]reqRecord, n)
	for i := range recs {
		recs[i] = reqRecord{Sent: true, OK: i >= failed, LatencyMs: 1, LateMs: 0.1}
	}
	return recs
}

func TestFailuresCountAsSLOMisses(t *testing.T) {
	// 0.5% failures stay below the p99 rank; 2% push p99 to +Inf.
	if st := summarize(recsWith(1000, 5)); st.P99 != 1 || st.Failed != 5 || !meetsSLO(st, 10) {
		t.Fatalf("0.5%% failures: %+v", st)
	}
	st := summarize(recsWith(1000, 20))
	if !math.IsInf(st.P99, 1) || meetsSLO(st, 10) {
		t.Fatalf("2%% failures must miss the limit: %+v", st)
	}
	// Requests the generator never sent are failures and infinitely late,
	// so a backlog that outgrew the probe fails it even with fast answers.
	recs := recsWith(1000, 0)
	for i := 980; i < 1000; i++ {
		recs[i] = reqRecord{}
	}
	if st := summarize(recs); st.Failed != 20 || meetsSLO(st, 10) {
		t.Fatalf("unsent requests must count as misses: %+v", st)
	}
	// A growing backlog fails even when every answer is within the limit.
	recs = recsWith(1000, 0)
	for i := range recs {
		recs[i].LateMs = float64(i) / 100
		recs[i].LatencyMs = 1 + recs[i].LateMs/10
	}
	if st := summarize(recs); meetsSLO(st, 10) {
		t.Fatalf("growing backlog must fail: %+v", st)
	}
}

func TestLadderFindsHighestPassingStep(t *testing.T) {
	l := ladder{Base: 100, Ratio: 1.03, Steps: 63}
	for _, capacity := range []float64{50, 100, 180, 250, 1e9} {
		probes := 0
		got := l.highest(func(rate float64) bool { probes++; return rate <= capacity })
		if probes > 7 {
			t.Fatalf("capacity %v: %d probes, want at most 7", capacity, probes)
		}
		want := l.rate(-1)
		for k := 0; k < l.Steps; k++ {
			if l.rate(k) <= capacity {
				want = l.rate(k)
			}
		}
		if got != want {
			t.Fatalf("capacity %v: got %v, want %v", capacity, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the result line prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to perfbench:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, spec, code []metricDef) {
		if len(spec) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(spec), len(code))
		}
		for i := range spec {
			if spec[i] != code[i] {
				t.Fatalf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, spec[i], code[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "corpus-tree,serve-cold" {
		t.Fatalf("workloads %s", got)
	}
}

func TestResultLineCarriesEveryMetric(t *testing.T) {
	r := newReport("serve-cold", 1, 1, true)
	r.add("serve.cache.hit_ratio", 0.99, "ratio")
	var buf bytes.Buffer
	if err := r.write(&buf, true, 1, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) || res.Metrics["serve.cache.hit_ratio"].Value != 0.99 {
		t.Fatalf("traced result line: %+v", res.Metrics)
	}
	// An untraced run must measure every end-to-end metric.
	if err := newReport("serve-cold", 1, 1, false).write(&buf, true, 1, 0); err == nil {
		t.Fatal("missing end-to-end metrics were not reported")
	}
}
