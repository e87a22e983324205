// Package word2vec is a pure-Go skip-gram Word2Vec with negative sampling,
// the embedding stage of the paper (§IV-C): it learns a 32-dimensional
// vector per generalized assembly token (window 5), maximizing the paper's
// objective (Eq. 1) via the standard negative-sampling surrogate.
package word2vec

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/telemetry"
)

// Embedding-training telemetry: cumulative sentence/token throughput
// across epochs, shared by the serial and Hogwild trainers. Per-sentence
// atomic adds are negligible next to the dot products a sentence costs.
var (
	mSentences = telemetry.Default().Counter("cati_w2v_sentences_total",
		"Sentences consumed by Word2Vec training, across epochs.")
	mTokens = telemetry.Default().Counter("cati_w2v_tokens_total",
		"Tokens consumed by Word2Vec training, across epochs.")
)

// Config are the training hyperparameters; zero values take the paper's
// defaults.
type Config struct {
	Dim      int     // embedding dimensionality (paper: 32)
	Window   int     // max skip distance m (paper: 5)
	Negative int     // negative samples per positive pair
	Epochs   int     // passes over the corpus
	LR       float64 // initial learning rate, linearly decayed
	MinCount int     // drop tokens rarer than this
	Seed     int64
	// Workers is the parallel training shard count. Because parallel
	// Word2Vec is nondeterministic (see Deterministic), it is opt-in: 0
	// reads CATI_WORKERS and otherwise trains serially — GOMAXPROCS alone
	// never triggers it (par.WorkersExplicit).
	Workers int
	// Deterministic forces the serial trainer regardless of Workers,
	// guaranteeing bit-for-bit reproducible embeddings for a fixed Seed.
	// Parallel training is Hogwild-style — sentence shards update the
	// shared matrices concurrently with per-shard RNGs derived from
	// (Seed, shard) — so its result depends on update interleaving and is
	// reproducible only in distribution, not bitwise (striped row locks
	// make the races memory-safe; see DESIGN.md "Parallelism &
	// determinism").
	Deterministic bool
}

func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.Window == 0 {
		c.Window = 5
	}
	if c.Negative == 0 {
		c.Negative = 5
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.LR == 0 {
		c.LR = 0.025
	}
	if c.MinCount == 0 {
		c.MinCount = 1
	}
	return c
}

// Model is a trained embedding table.
type Model struct {
	Dim   int
	Vocab map[string]int
	Words []string
	// Vecs is the input-embedding matrix, row per vocabulary word.
	Vecs [][]float32
}

// Vector returns the embedding of a token; unknown tokens embed to the
// zero vector (stripped-binary inference may see tokens unseen in
// training — the paper reports >99% generalization coverage, and the rest
// must not crash the pipeline).
func (m *Model) Vector(tok string) []float32 {
	if i, ok := m.Vocab[tok]; ok {
		return m.Vecs[i]
	}
	return make([]float32, m.Dim)
}

// Has reports whether the token is in-vocabulary.
func (m *Model) Has(tok string) bool {
	_, ok := m.Vocab[tok]
	return ok
}

// sigmoid lookup table, as in the reference implementation.
const (
	sigTableSize = 1024
	sigMax       = 6.0
)

type sigTable [sigTableSize]float32

func newSigTable() *sigTable {
	var t sigTable
	for i := range t {
		x := (float64(i)/sigTableSize*2 - 1) * sigMax
		t[i] = float32(1 / (1 + math.Exp(-x)))
	}
	return &t
}

func (t *sigTable) at(x float32) float32 {
	if x >= sigMax {
		return 1
	}
	if x <= -sigMax {
		return 0
	}
	i := int((x + sigMax) / (2 * sigMax) * sigTableSize)
	if i >= sigTableSize {
		i = sigTableSize - 1
	}
	return t[i]
}

// Train learns embeddings from sentences (token sequences). Deterministic
// for a fixed config unless parallelism is explicitly enabled via
// Config.Workers or CATI_WORKERS (and not vetoed by Config.Deterministic).
func Train(sentences [][]string, cfg Config) *Model {
	m, _ := TrainCtx(context.Background(), sentences, cfg)
	return m
}

// TrainCtx is Train with cooperative cancellation: both trainers check
// ctx at every sentence boundary, and once it is cancelled training stops
// and (nil, ctx.Err()) is returned.
func TrainCtx(ctx context.Context, sentences [][]string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))

	// Vocabulary with counts.
	counts := make(map[string]int)
	for _, s := range sentences {
		for _, tok := range s {
			counts[tok]++
		}
	}
	words := make([]string, 0, len(counts))
	for w, c := range counts {
		if c >= cfg.MinCount {
			words = append(words, w)
		}
	}
	sort.Strings(words) // determinism independent of map order
	vocab := make(map[string]int, len(words))
	for i, w := range words {
		vocab[w] = i
	}
	m := &Model{Dim: cfg.Dim, Vocab: vocab, Words: words}
	if len(words) == 0 {
		return m, nil
	}

	// Unigram table for negative sampling (counts^0.75).
	table := make([]int32, tableSize)
	var totalPow float64
	pows := make([]float64, len(words))
	for i, w := range words {
		pows[i] = math.Pow(float64(counts[w]), 0.75)
		totalPow += pows[i]
	}
	idx, cum := 0, pows[0]/totalPow
	for i := range table {
		table[i] = int32(idx)
		if float64(i)/tableSize > cum && idx < len(words)-1 {
			idx++
			cum += pows[idx] / totalPow
		}
	}

	// Parameter matrices.
	in := make([]float32, len(words)*cfg.Dim)
	out := make([]float32, len(words)*cfg.Dim)
	for i := range in {
		in[i] = (r.Float32() - 0.5) / float32(cfg.Dim)
	}

	sig := newSigTable()

	// Token stream as indices.
	var stream [][]int32
	totalTokens := 0
	for _, s := range sentences {
		row := make([]int32, 0, len(s))
		for _, tok := range s {
			if i, ok := vocab[tok]; ok {
				row = append(row, int32(i))
			}
		}
		if len(row) > 1 {
			stream = append(stream, row)
			totalTokens += len(row)
		}
	}

	workers := 1
	if !cfg.Deterministic {
		workers = par.WorkersExplicit(cfg.Workers)
	}
	if workers > 1 && len(stream) > 1 {
		if err := trainParallel(ctx, cfg, stream, table, in, out, sig, workers); err != nil {
			return nil, err
		}
	} else {
		if err := trainSerial(ctx, cfg, stream, table, in, out, sig, r, totalTokens); err != nil {
			return nil, err
		}
	}

	m.Vecs = make([][]float32, len(words))
	for i := range words {
		v := make([]float32, cfg.Dim)
		copy(v, in[i*cfg.Dim:(i+1)*cfg.Dim])
		m.Vecs[i] = v
	}
	return m, nil
}

// tableSize is the negative-sampling unigram table length (reference
// implementation uses 1e8; 128K keeps the same sampling resolution at our
// vocabulary sizes).
const tableSize = 1 << 17

// trainSerial is the historical single-goroutine trainer; Deterministic
// configs and Workers=1 run exactly this code, so serial embeddings stay
// bit-for-bit reproducible.
func trainSerial(ctx context.Context, cfg Config, stream [][]int32, table []int32, in, out []float32, sig *sigTable, r *rand.Rand, totalTokens int) error {
	grad := make([]float32, cfg.Dim)
	trained := 0
	totalSteps := cfg.Epochs * totalTokens
	done := ctx.Done()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, row := range stream {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			mSentences.Inc()
			mTokens.Add(uint64(len(row)))
			for ci, center := range row {
				// Linearly decayed learning rate with a floor.
				lr := float32(cfg.LR) * (1 - float32(trained)/float32(totalSteps+1))
				if lr < float32(cfg.LR)*0.0001 {
					lr = float32(cfg.LR) * 0.0001
				}
				trained++
				span := 1 + r.Intn(cfg.Window)
				for d := -span; d <= span; d++ {
					pos := ci + d
					if d == 0 || pos < 0 || pos >= len(row) {
						continue
					}
					ctx := row[pos]
					vIn := in[int(ctx)*cfg.Dim : int(ctx+1)*cfg.Dim]
					for k := range grad {
						grad[k] = 0
					}
					// One positive + Negative negatives.
					for s := 0; s <= cfg.Negative; s++ {
						var target int32
						var label float32
						if s == 0 {
							target, label = center, 1
						} else {
							target = table[r.Intn(tableSize)]
							if target == center {
								continue
							}
							label = 0
						}
						vOut := out[int(target)*cfg.Dim : int(target+1)*cfg.Dim]
						var dot float32
						for k := 0; k < cfg.Dim; k++ {
							dot += vIn[k] * vOut[k]
						}
						g := (label - sig.at(dot)) * lr
						for k := 0; k < cfg.Dim; k++ {
							grad[k] += g * vOut[k]
							vOut[k] += g * vIn[k]
						}
					}
					for k := 0; k < cfg.Dim; k++ {
						vIn[k] += grad[k]
					}
				}
			}
		}
	}
	return nil
}

// lockStripes is the row-lock stripe count guarding the shared matrices
// during parallel training; rows hash to stripes by index.
const lockStripes = 256

// rowLocks stripes the input and output matrices separately. Workers take
// an in-stripe lock for the context row, then out-stripe locks one target
// at a time — in-before-out ordering everywhere, so no cycles exist.
type rowLocks struct {
	in  [lockStripes]sync.Mutex
	out [lockStripes]sync.Mutex
}

// trainParallel splits the sentence stream into contiguous shards, one per
// worker, and trains all shards concurrently within each epoch (with a
// barrier between epochs). Each shard draws windows and negatives from its
// own RNG seeded by (Seed, shard) and decays its learning rate against its
// own token count, so a shard's schedule is deterministic — but updates to
// the shared matrices interleave across shards Hogwild-style, making the
// final embedding reproducible only in distribution. Striped row locks
// keep concurrent row updates memory-safe (and the race detector quiet)
// at negligible cost next to the dot products.
func trainParallel(ctx context.Context, cfg Config, stream [][]int32, table []int32, in, out []float32, sig *sigTable, workers int) error {
	ns := par.NumShards(len(stream), workers)
	type shardState struct {
		rng     *rand.Rand
		grad    []float32
		trained int
		total   int
	}
	states := make([]*shardState, ns)
	locks := &rowLocks{}
	for s := range states {
		states[s] = &shardState{
			// golden-ratio hash of the shard index keeps neighbor shards'
			// streams uncorrelated.
			rng:  rand.New(rand.NewSource(cfg.Seed ^ int64(s+1)*-0x61C8864680B583EB)),
			grad: make([]float32, cfg.Dim),
		}
	}

	done := ctx.Done()
	var stop atomic.Bool
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		par.Shard(len(stream), workers, func(shard, lo, hi int) {
			st := states[shard]
			if epoch == 0 {
				for _, row := range stream[lo:hi] {
					st.total += len(row)
				}
			}
			totalSteps := cfg.Epochs * st.total
			for _, row := range stream[lo:hi] {
				if done != nil {
					if stop.Load() {
						return
					}
					select {
					case <-done:
						stop.Store(true)
						return
					default:
					}
				}
				mSentences.Inc()
				mTokens.Add(uint64(len(row)))
				for ci, center := range row {
					lr := float32(cfg.LR) * (1 - float32(st.trained)/float32(totalSteps+1))
					if lr < float32(cfg.LR)*0.0001 {
						lr = float32(cfg.LR) * 0.0001
					}
					st.trained++
					span := 1 + st.rng.Intn(cfg.Window)
					for d := -span; d <= span; d++ {
						pos := ci + d
						if d == 0 || pos < 0 || pos >= len(row) {
							continue
						}
						ctx := row[pos]
						vIn := in[int(ctx)*cfg.Dim : int(ctx+1)*cfg.Dim]
						grad := st.grad
						for k := range grad {
							grad[k] = 0
						}
						inLk := &locks.in[int(ctx)%lockStripes]
						inLk.Lock()
						for s := 0; s <= cfg.Negative; s++ {
							var target int32
							var label float32
							if s == 0 {
								target, label = center, 1
							} else {
								target = table[st.rng.Intn(tableSize)]
								if target == center {
									continue
								}
								label = 0
							}
							vOut := out[int(target)*cfg.Dim : int(target+1)*cfg.Dim]
							outLk := &locks.out[int(target)%lockStripes]
							outLk.Lock()
							var dot float32
							for k := 0; k < cfg.Dim; k++ {
								dot += vIn[k] * vOut[k]
							}
							g := (label - sig.at(dot)) * lr
							for k := 0; k < cfg.Dim; k++ {
								grad[k] += g * vOut[k]
								vOut[k] += g * vIn[k]
							}
							outLk.Unlock()
						}
						for k := 0; k < cfg.Dim; k++ {
							vIn[k] += grad[k]
						}
						inLk.Unlock()
					}
				}
			}
		})
		if stop.Load() {
			return ctx.Err()
		}
	}
	return nil
}

// Similarity returns the cosine similarity of two tokens (0 when either is
// out of vocabulary or zero).
func (m *Model) Similarity(a, b string) float64 {
	va, vb := m.Vector(a), m.Vector(b)
	var dot, na, nb float64
	for i := range va {
		dot += float64(va[i]) * float64(vb[i])
		na += float64(va[i]) * float64(va[i])
		nb += float64(vb[i]) * float64(vb[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Encode serializes the model. Vocab is left out: it is Words inverted,
// and gob writes maps in random order, so encoding it would give one
// model a different byte string (and artifact fingerprint) on every
// save.
func (m *Model) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Model{Dim: m.Dim, Words: m.Words, Vecs: m.Vecs}); err != nil {
		return nil, fmt.Errorf("word2vec: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes a model, rebuilding Vocab from Words. Blobs that
// still carry an encoded Vocab decode to the same model.
func Decode(data []byte) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, fmt.Errorf("word2vec: decode: %w", err)
	}
	m.Vocab = make(map[string]int, len(m.Words))
	for i, w := range m.Words {
		m.Vocab[w] = i
	}
	return &m, nil
}
