package vptree

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
	"mvptree/internal/wire"
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

// holds counts the items under n, vantage points included.
func holds[T any](n *node[T]) int {
	switch {
	case n == nil:
		return 0
	case n.leaf:
		return len(n.items)
	}
	count := 1
	for _, c := range n.children {
		count += holds(c)
	}
	return count
}

// FuzzLoad feeds Load arbitrary payloads, each both raw and sealed
// behind a matching CRC. Load must never panic and never allocate
// beyond a small multiple of its input; whatever it returns must answer
// every query kind without panicking, hold exactly Len() items, and
// survive Save → Load → Save byte for byte. Items decode as strings
// under edit distance, so any bytes are an item.
func FuzzLoad(f *testing.F) {
	enc := func(s string) ([]byte, error) { return []byte(s), nil }
	words := dataset.Words(rand.New(rand.NewPCG(16, 8)), 120, dataset.WordOptions{MinLen: 3, MaxLen: 8, MisspellingsPer: 2})
	wordTree := testutil.PayloadOf(saved(f, words, metric.Edit, enc, Options{Order: 3, LeafCapacity: 5, Build: Build{Seed: 1}}))
	for _, payload := range [][]byte{
		wordTree,
		testutil.PayloadOf(saved(f, dataset.UniformVectors(rand.New(rand.NewPCG(16, 9)), 80, 3), metric.L2, codec.EncodeVector,
			Options{Order: 2, LeafCapacity: 4, Build: Build{Seed: 2}})),
		testutil.PayloadOf(saved(f, words[:6], metric.Edit, enc, Options{LeafCapacity: 13})), // a single leaf
		testutil.PayloadOf(saved(f, nil, metric.Edit, enc, Options{})),                       // empty
		wordTree[:len(wordTree)/2], // truncated
		// A leaf claiming four million items in a ten-byte payload.
		testutil.Payload(func(w *wire.Writer) { w.Int(2); w.Int(0); w.Byte(tagLeaf); w.Int(1 << 22) }),
		// An internal node claiming four million children, at an order to match.
		testutil.Payload(func(w *wire.Writer) {
			w.Int(1 << 22)
			w.Int(1)
			w.Byte(tagInternal)
			w.Bytes([]byte("vp"))
			w.Floats(nil)
			w.Int(1 << 22)
		}),
		// Three children over one cutoff: the third has no shell.
		testutil.Payload(func(w *wire.Writer) {
			w.Int(3)
			w.Int(1)
			w.Byte(tagInternal)
			w.Bytes([]byte("vp"))
			w.Floats([]float64{1})
			w.Int(3)
			w.Byte(tagNil)
			w.Byte(tagNil)
			w.Byte(tagNil)
		}),
		// A header of seven items over a leaf of two.
		testutil.Payload(func(w *wire.Writer) {
			w.Int(2)
			w.Int(7)
			w.Byte(tagLeaf)
			w.Int(2)
			w.Bytes([]byte("ab"))
			w.Bytes([]byte("cd"))
		}),
	} {
		f.Add(payload)
	}
	f.Add(saved(f, words[:20], metric.Edit, enc, Options{})) // a whole stream: loads raw, nests sealed

	dec := func(b []byte) (string, error) { return string(b), nil }
	load := func(stream []byte) (*Tree[string], error) {
		return Load(bytes.NewReader(stream), metric.NewCounter(metric.Edit), dec)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, stream := range [][]byte{payload, testutil.Seal(saveMagic, payload)} {
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
			if held := holds(tree.root); held != tree.Len() {
				t.Fatalf("Len() = %d, the tree holds %d items", tree.Len(), held)
			}
			for _, q := range []string{"", "probe"} {
				tree.Range(q, 1)
				tree.KNN(q, 3)
				tree.RangeFarther(q, 2)
				tree.KFarthest(q, 3)
			}
			reqs := []index.Query[string]{index.RangeQuery("probe", 2), index.RangeQuery("", 0)}
			tree.SearchBatch(reqs, make([]index.Result[string], len(reqs)))

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
