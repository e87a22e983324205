package word2vec

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// synthetic corpus with two token "topics" that never co-occur: tokens
// within a topic must embed closer than tokens across topics.
func topicCorpus(n int, seed int64) [][]string {
	r := rand.New(rand.NewSource(seed))
	topicA := []string{"mov", "%rax", "%rbx", "add", "$0xIMM"}
	topicB := []string{"movsd", "%xmm0", "%xmm1", "addsd", "0xIMM(%rsp)"}
	var out [][]string
	for i := 0; i < n; i++ {
		topic := topicA
		if i%2 == 1 {
			topic = topicB
		}
		s := make([]string, 30)
		for j := range s {
			s[j] = topic[r.Intn(len(topic))]
		}
		out = append(out, s)
	}
	return out
}

func TestTrainBasics(t *testing.T) {
	m := Train(topicCorpus(200, 1), Config{Dim: 16, Epochs: 3, Seed: 9})
	if len(m.Words) != 10 {
		t.Fatalf("vocab = %d, want 10", len(m.Words))
	}
	if m.Dim != 16 {
		t.Fatalf("dim = %d", m.Dim)
	}
	for _, w := range m.Words {
		v := m.Vector(w)
		if len(v) != 16 {
			t.Fatalf("%s: vector length %d", w, len(v))
		}
		var norm float64
		for _, x := range v {
			norm += float64(x) * float64(x)
		}
		if norm == 0 {
			t.Errorf("%s: zero vector after training", w)
		}
		if math.IsNaN(norm) || math.IsInf(norm, 0) {
			t.Fatalf("%s: non-finite vector", w)
		}
	}
}

func TestTopicalSimilarity(t *testing.T) {
	m := Train(topicCorpus(400, 2), Config{Dim: 16, Epochs: 5, Seed: 3})
	within := m.Similarity("mov", "add")
	across := m.Similarity("mov", "addsd")
	if within <= across {
		t.Errorf("within-topic similarity %.3f not above across-topic %.3f", within, across)
	}
	within2 := m.Similarity("%xmm0", "%xmm1")
	across2 := m.Similarity("%xmm0", "%rbx")
	if within2 <= across2 {
		t.Errorf("xmm similarity %.3f not above cross %.3f", within2, across2)
	}
}

func TestOOVVector(t *testing.T) {
	m := Train(topicCorpus(10, 1), Config{Dim: 8, Epochs: 1, Seed: 1})
	v := m.Vector("never-seen-token")
	if len(v) != 8 {
		t.Fatalf("OOV vector length %d", len(v))
	}
	for _, x := range v {
		if x != 0 {
			t.Fatal("OOV vector not zero")
		}
	}
	if m.Has("never-seen-token") {
		t.Error("Has(OOV) = true")
	}
	if !m.Has("mov") {
		t.Error("Has(mov) = false")
	}
}

func TestDeterminism(t *testing.T) {
	a := Train(topicCorpus(50, 4), Config{Dim: 8, Epochs: 2, Seed: 7})
	b := Train(topicCorpus(50, 4), Config{Dim: 8, Epochs: 2, Seed: 7})
	for i, w := range a.Words {
		if b.Words[i] != w {
			t.Fatal("vocab order differs")
		}
		va, vb := a.Vecs[i], b.Vecs[i]
		for k := range va {
			if va[k] != vb[k] {
				t.Fatalf("%s: vectors differ at %d", w, k)
			}
		}
	}
}

// TestDeterministicOverridesWorkers: the Deterministic flag must force the
// serial trainer, so Workers=4 reproduces the Workers=1 embedding exactly.
func TestDeterministicOverridesWorkers(t *testing.T) {
	corp := topicCorpus(60, 6)
	serial := Train(corp, Config{Dim: 8, Epochs: 2, Seed: 7, Workers: 1})
	det := Train(corp, Config{Dim: 8, Epochs: 2, Seed: 7, Workers: 4, Deterministic: true})
	for i, w := range serial.Words {
		for k := range serial.Vecs[i] {
			if serial.Vecs[i][k] != det.Vecs[i][k] {
				t.Fatalf("%s: Deterministic+Workers=4 differs from serial at %d", w, k)
			}
		}
	}
}

// TestParallelTraining exercises the sharded Hogwild trainer (race-clean
// via striped row locks; run under -race by the Makefile check target) and
// checks it still learns the topic structure.
func TestParallelTraining(t *testing.T) {
	m := Train(topicCorpus(400, 2), Config{Dim: 16, Epochs: 5, Seed: 3, Workers: 3})
	if len(m.Words) != 10 {
		t.Fatalf("vocab = %d, want 10", len(m.Words))
	}
	for i, w := range m.Words {
		var norm float64
		for _, x := range m.Vecs[i] {
			norm += float64(x) * float64(x)
		}
		if norm == 0 {
			t.Errorf("%s: zero vector after parallel training", w)
		}
		if math.IsNaN(norm) || math.IsInf(norm, 0) {
			t.Fatalf("%s: non-finite vector after parallel training", w)
		}
	}
	if within, across := m.Similarity("mov", "add"), m.Similarity("mov", "addsd"); within <= across {
		t.Errorf("parallel: within-topic similarity %.3f not above across-topic %.3f", within, across)
	}
}

func TestMinCount(t *testing.T) {
	sentences := [][]string{{"common", "common", "common", "rare", "common", "common"}}
	m := Train(sentences, Config{Dim: 4, Epochs: 1, MinCount: 2, Seed: 1})
	if m.Has("rare") {
		t.Error("rare token survived MinCount")
	}
	if !m.Has("common") {
		t.Error("common token dropped")
	}
}

func TestEncodeDecode(t *testing.T) {
	m := Train(topicCorpus(30, 5), Config{Dim: 8, Epochs: 1, Seed: 2})
	blob, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != m.Dim || len(got.Words) != len(m.Words) {
		t.Fatal("shape mismatch after decode")
	}
	for i := range m.Vecs {
		for k := range m.Vecs[i] {
			if got.Vecs[i][k] != m.Vecs[i][k] {
				t.Fatal("vector mismatch after decode")
			}
		}
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("Decode(garbage) should fail")
	}
}

// TestEncodeByteStable: the encoding leaves out the Vocab map (gob writes
// maps in random order), so re-encoding a decoded model reproduces its
// bytes; Decode rebuilds Vocab, also from blobs that still carry one.
func TestEncodeByteStable(t *testing.T) {
	m := Train(topicCorpus(30, 5), Config{Dim: 8, Epochs: 1, Seed: 2})
	blob, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var withVocab bytes.Buffer
	if err := gob.NewEncoder(&withVocab).Encode(m); err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]byte{blob, withVocab.Bytes()} {
		got, err := Decode(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatal("decoded model differs from the encoded one")
		}
		again, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatal("re-encoded model differs from the first encoding")
		}
	}
}

func TestEmptyCorpus(t *testing.T) {
	m := Train(nil, Config{Dim: 4, Seed: 1})
	if len(m.Words) != 0 {
		t.Fatal("non-empty vocab from empty corpus")
	}
	if v := m.Vector("x"); len(v) != 4 {
		t.Fatal("OOV vector wrong length on empty model")
	}
}
