package gmvp

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
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
	if n == nil {
		return 0
	}
	count := len(n.vantages) + len(n.items)
	var walk func(sp *split[T])
	walk = func(sp *split[T]) {
		for _, sub := range sp.subs {
			walk(sub)
		}
		for _, c := range sp.children {
			count += holds(c)
		}
	}
	if n.top != nil {
		walk(n.top)
	}
	return count
}

// header writes a gmvp header: v, m, k, p and the item count.
func header(w *wire.Writer, v, m, k, p, size int) {
	for _, x := range []int{v, m, k, p, size} {
		w.Int(x)
	}
}

// FuzzLoad feeds Load arbitrary payloads, each both raw and sealed
// behind a matching CRC. Load must never panic and never allocate
// beyond a small multiple of its input; whatever it returns must answer
// every query kind without panicking, hold exactly Len() items, and
// survive Save → Load → Save byte for byte. Items decode as strings
// under edit distance, so any bytes are an item.
func FuzzLoad(f *testing.F) {
	enc := func(s string) ([]byte, error) { return []byte(s), nil }
	words := dataset.Words(rand.New(rand.NewPCG(17, 8)), 120, dataset.WordOptions{MinLen: 3, MaxLen: 8, MisspellingsPer: 2})
	wordTree := testutil.PayloadOf(saved(f, words, metric.Edit, enc, Options{Vantages: 3, Partitions: 2, LeafCapacity: 5, PathLength: 4, Build: Build{Seed: 1}}))
	for _, payload := range [][]byte{
		wordTree,
		testutil.PayloadOf(saved(f, dataset.UniformVectors(rand.New(rand.NewPCG(17, 9)), 80, 3), metric.L2, codec.EncodeVector,
			Options{Vantages: 2, Partitions: 3, LeafCapacity: 4, Build: Build{Seed: 2}})),
		testutil.PayloadOf(saved(f, words[:6], metric.Edit, enc, Options{LeafCapacity: 13})), // a single leaf
		testutil.PayloadOf(saved(f, nil, metric.Edit, enc, Options{})),                       // empty
		wordTree[:len(wordTree)/2], // truncated
		// A leaf claiming four million vantage points, at a v to match.
		testutil.Payload(func(w *wire.Writer) { header(w, 1<<22, 2, 1, 0, 0); w.Byte(tagLeaf); w.Int(1 << 22) }),
		// A leaf of one vantage point claiming a million items, each with
		// a PATH slice and a slot in the distance column.
		testutil.Payload(func(w *wire.Writer) {
			header(w, 1, 2, 1, 0, 1)
			w.Byte(tagLeaf)
			w.Int(1)
			w.Bytes([]byte("vp"))
			w.Int(1 << 20)
		}),
		// A split claiming four million children over no cutoffs.
		testutil.Payload(func(w *wire.Writer) {
			header(w, 1, 2, 1, 0, 1)
			w.Byte(tagInternal)
			w.Int(1)
			w.Bytes([]byte("vp"))
			w.Int(0)
			w.Floats(nil)
			w.Byte(kindChild)
			w.Int(1 << 22)
		}),
		// A split at level 1 of a node with one vantage point.
		testutil.Payload(func(w *wire.Writer) {
			header(w, 2, 2, 1, 0, 1)
			w.Byte(tagInternal)
			w.Int(1)
			w.Bytes([]byte("vp"))
			w.Int(1)
			w.Floats(nil)
			w.Byte(kindChild)
			w.Int(1)
			w.Byte(tagNil)
		}),
		// A header of seven items over a leaf of two, and a PATH length
		// the query scratch must not be sized by.
		testutil.Payload(func(w *wire.Writer) {
			header(w, 1, 2, 1, 1<<27, 7)
			w.Byte(tagLeaf)
			w.Int(1)
			w.Bytes([]byte("vp"))
			w.Int(1)
			w.Bytes([]byte("ab"))
			w.Int(1)
			w.Float(2)
			w.Floats(nil)
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
