package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/corpus"
	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/word2vec"
)

// TestSaveLoadSaveByteIdentical: re-saving a loaded model reproduces its
// artifact byte for byte, so one model has one fingerprint — a reload of
// an unchanged model keeps the serve result cache, and replicas that
// loaded different saves of one model share peer cache fills.
func TestSaveLoadSaveByteIdentical(t *testing.T) {
	blob, err := freshCATI(t).Save()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c, err := Load(blob)
		if err != nil {
			t.Fatal(err)
		}
		fp := c.Fingerprint()
		again, err := c.Save()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("save %d: re-saved artifact differs (%d vs %d bytes)", i, len(again), len(blob))
		}
		if c.Fingerprint() != fp {
			t.Fatalf("save %d: fingerprint moved %s → %s", i, fp, c.Fingerprint())
		}
	}
}

// TestSameSeedTrainingsShareFingerprint: two trainings with one seed,
// one worker count and the serial Word2Vec trainer produce one artifact.
func TestSameSeedTrainingsShareFingerprint(t *testing.T) {
	c, err := corpus.Build(corpus.BuildConfig{
		Name: "stable-train", Binaries: 2,
		Profile: synth.DefaultProfile("stable"), Window: 5, Seed: 37,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := classify.Config{
		Window: 5, Conv1: 4, Conv2: 4, Hidden: 16, MaxPerStage: 200, Workers: 2,
		Train: nn.TrainConfig{Epochs: 1, Batch: 32, LR: 2e-3},
		W2V:   word2vec.Config{Epochs: 1, Deterministic: true}, Seed: 11,
	}
	var fps [2]string
	for i := range fps {
		cati, err := Train(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cati.Save(); err != nil {
			t.Fatal(err)
		}
		fps[i] = cati.Fingerprint()
	}
	if fps[0] != fps[1] {
		t.Fatalf("same-seed trainings give fingerprints %s and %s", fps[0], fps[1])
	}
}

// TestLegacyLayoutEveryKernel: the legacy fixture gives its golden
// answers byte for byte on both GEMM backends that share the blocked
// summation order — blocked (the Go kernel) and jit (whichever kernel
// variant the host selected). portable sums in another order and may
// round differently, so it is left out.
func TestLegacyLayoutEveryKernel(t *testing.T) {
	blob, err := os.ReadFile("testdata/legacy-layout.model")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/legacy-layout.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"blocked", "jit"} {
		t.Run(backend, func(t *testing.T) {
			if err := gemm.Select(backend); err != nil {
				t.Skipf("backend %s: %v", backend, err)
			}
			defer func() {
				if err := gemm.Select("auto"); err != nil {
					t.Fatal(err)
				}
			}()
			c, err := Load(blob)
			if err != nil {
				t.Fatal(err)
			}
			if got := legacyTranscript(t, c); got != string(golden) {
				t.Fatalf("%s answers differ from the golden transcript:\n got %q\nwant %q", backend, got, golden)
			}
		})
	}
}

// legacyTranscript renders the variables c infers on the legacy fixture's
// two target binaries, one line per variable, in the golden file's form.
func legacyTranscript(t *testing.T, c *CATI) string {
	t.Helper()
	var b strings.Builder
	for _, seed := range []int64{61, 62} {
		vars, err := c.InferBinaryCtx(context.Background(), testBinary(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vars {
			fmt.Fprintf(&b, "%d %#x %d %v %d %d %s\n", seed, v.FuncLow, v.Slot, v.Global, v.Size, v.NumVUCs, v.Class)
		}
	}
	return b.String()
}

// TestLegacyLayoutArtifact: testdata/legacy-layout.model was written in
// the layout that encoded the stage networks and the Word2Vec vocabulary
// as gob maps; the golden file holds the answers the writing build gave
// on two fixed binaries. It must still load and give those answers, and
// re-saving it moves it to the stable layout without changing them.
func TestLegacyLayoutArtifact(t *testing.T) {
	blob, err := os.ReadFile("testdata/legacy-layout.model")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/legacy-layout.golden")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Load(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy.Pipeline.Stages) != 6 {
		t.Fatalf("legacy artifact decoded %d stage networks, want 6", len(legacy.Pipeline.Stages))
	}
	if got := legacyTranscript(t, legacy); got != string(golden) {
		t.Fatalf("legacy artifact answers differ from the golden transcript:\n got %q\nwant %q", got, golden)
	}

	stable, err := legacy.Save()
	if err != nil {
		t.Fatal(err)
	}
	resaved, err := Load(stable)
	if err != nil {
		t.Fatal(err)
	}
	again, err := resaved.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, stable) {
		t.Fatal("re-saved legacy artifact is not byte-stable")
	}
	if got := legacyTranscript(t, resaved); got != string(golden) {
		t.Fatal("re-saved legacy artifact changed its answers")
	}
}
