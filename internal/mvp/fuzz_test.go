package mvp

import (
	"bytes"
	"maps"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

// saved builds a tree over items and returns its Save bytes.
func saved[T any](f *testing.F, items []T, dist metric.DistanceFunc[T], enc ItemEncoder[T], opts Options) []byte {
	tree, err := New(items, metric.NewCounter(dist), opts)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf, enc); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoad feeds Load arbitrary payloads, each raw and sealed behind a
// matching CRC under every magic Load knows — the four it reads and the
// retired one it refuses. Load must never panic, never allocate beyond a
// small multiple of its input, and whatever it returns must pass the
// shape half of Validate, answer every query kind without panicking, as
// its wide twin (the same stream loaded again and widened) does, and
// survive Save → Load → Save byte for byte. Items decode as strings under
// edit distance, so any bytes are an item; two word seeds load into the
// two narrow arenas, nibble rows and bytes.
func FuzzLoad(f *testing.F) {
	enc := func(s string) ([]byte, error) { return []byte(s), nil }
	words := dataset.Words(rand.New(rand.NewPCG(15, 8)), 120, dataset.WordOptions{MinLen: 3, MaxLen: 8, MisspellingsPer: 2})
	wordStream := saved(f, words, metric.Edit, enc, Options{Partitions: 2, LeafCapacity: 5, PathLength: 3, Build: Build{Seed: 1}})
	wordTree := testutil.PayloadOf(wordStream)
	// Words past 15 letters are edit distances a nibble cannot hold: this
	// seed loads into bytes where wordStream loads into nibble rows.
	long := dataset.Words(rand.New(rand.NewPCG(15, 10)), 60, dataset.WordOptions{MinLen: 16, MaxLen: 24, MisspellingsPer: 2})
	longStream := saved(f, long, metric.Edit, enc, Options{Partitions: 2, LeafCapacity: 5, PathLength: 3, Build: Build{Seed: 1}})
	// Whole streams that load raw: MVPTREE4 ones Load must refuse.
	faults := testutil.ArenaFaults(wordStream)
	for _, name := range slices.Sorted(maps.Keys(faults)) {
		f.Add(faults[name])
	}
	for _, payload := range [][]byte{
		wordTree,
		testutil.PayloadOf(saved(f, dataset.UniformVectors(rand.New(rand.NewPCG(15, 9)), 80, 3), metric.L2, codec.EncodeVector,
			Options{Partitions: 3, LeafCapacity: 4, PathLength: 5, Build: Build{Seed: 2}})),
		testutil.PayloadOf(longStream),
		testutil.PayloadOf(saved(f, words, metric.Edit, enc, vpOptions(3, 1, 3))), // a classic vp-tree
		testutil.PayloadOf(saved(f, words, metric.Edit, enc, Options{Vantages: 1, Partitions: 2, LeafCapacity: 5, PathLength: 3, Build: Build{Seed: 4}})),
		testutil.PayloadOf(saved(f, words[:6], metric.Edit, enc, Options{LeafCapacity: 13})), // a single leaf
		testutil.PayloadOf(saved(f, nil, metric.Edit, enc, Options{})),                       // empty
		wordTree[:len(wordTree)/2], // truncated
		flipByte(wordTree, 9),
		flipByte(wordTree, len(wordTree)/3),
	} {
		f.Add(payload)
	}
	f.Add(saved(f, words[:20], metric.Edit, enc, Options{})) // a whole stream: loads raw, nests sealed
	// What Save writes is MVPTREE4; the payloads earlier versions wrote.
	for _, name := range []string{"testdata/pr14_float64_leaves.mvp", "testdata/pr18_float32_leaves.mvp", "testdata/pr19_mvptree2.mvp", "testdata/pr19_vptree1.vp", "testdata/pr22_mvptree3.mvp", "testdata/pr22_words_m3k20p5.mvp", "testdata/pr30_mvptree4.mvp"} {
		old, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(testutil.PayloadOf(old))
	}

	dec := func(b []byte) (string, error) { return string(b), nil }
	load := func(stream []byte) (*Tree[string], error) {
		return Load(bytes.NewReader(stream), metric.NewCounter(metric.Edit), dec)
	}
	for _, seed := range []struct {
		stream  []byte
		nibbles bool
	}{{wordStream, true}, {longStream, false}} {
		if tree, err := load(seed.stream); err != nil || (tree.nibbles != nil) != seed.nibbles || tree.nibbles == nil && tree.narrow == nil {
			f.Fatalf("a word seed does not load into nibble rows (%v), else bytes: %v", seed.nibbles, err)
		}
	}
	var probes []index.Query[string]
	for _, q := range []string{"", "probe"} {
		probes = append(probes, index.RangeQuery(q, 0), index.RangeQuery(q, 1), index.RangeQuery(q, 2), index.KNNQuery(q, 3))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		streams := [][]byte{payload}
		for _, magic := range []string{saveMagic, loadMagicV3, loadMagicV2, loadMagicV1, retiredVPMagic} {
			streams = append(streams, testutil.Seal(magic, payload))
		}
		for _, stream := range streams {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tree, err := load(stream)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(stream)+1<<20); got > limit {
				t.Fatalf("Load allocated %d bytes for a %d-byte stream", got, len(stream))
			}
			if err != nil {
				continue
			}
			if _, err := tree.checkShape(); err != nil {
				t.Fatalf("loaded tree fails the shape check: %v", err)
			}
			wide, err := load(stream)
			if err != nil {
				t.Fatalf("the same stream loaded, then failed to: %v", err)
			}
			wide.Widen()
			if err := wideDiff(tree, wide, probes); err != nil {
				t.Fatalf("the loaded tree and its wide twin: %v", err)
			}

			var first, second bytes.Buffer
			if err := tree.Save(&first, enc); err != nil {
				t.Fatalf("Save of a loaded tree: %v", err)
			}
			again, err := load(first.Bytes())
			if err != nil {
				t.Fatalf("Load of a loaded tree's Save: %v", err)
			}
			if err := again.Save(&second, enc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("Save -> Load -> Save changed the stream")
			}
		}
	})
}
