package dynamic

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/testutil"
)

// TestStoreBytesPerItem pins what a store weighs beside the tree it holds:
// its tree indexes the items themselves and carries no tombstones until a
// delete, so a 5,000-word store adds at most 16 B/item of live heap (14.25
// measured, 14.80 before the vantage points joined the point arena) and
// a store of 5,000 vectors at most one byte an item more than a plain
// mvp-tree over them. The options are the paper's, as dynamic-churn
// builds with.
func TestStoreBytesPerItem(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap sizes are inflated by race-detector instrumentation")
	}
	const n = 5000
	opts := mvp.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: mvp.Build{Seed: 1}}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second empties what sync.Pool kept through the first
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// weigh returns the live heap build adds, per item.
	weigh := func(build func() (any, error)) float64 {
		before := liveHeap()
		index, err := build()
		if err != nil {
			t.Fatal(err)
		}
		after := liveHeap()
		runtime.KeepAlive(index)
		return float64(after-before) / n
	}

	seen := make(map[string]bool)
	var words []string
	for _, w := range dataset.Words(rand.New(rand.NewPCG(1, 5)), 2*n, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3}) {
		if !seen[w] && len(words) < n {
			seen[w] = true
			words = append(words, w)
		}
	}
	if len(words) < n {
		t.Fatalf("generated only %d distinct words", len(words))
	}
	store := weigh(func() (any, error) { return New(words, metric.Edit, Options{Tree: opts}) })
	tree := weigh(func() (any, error) { return mvp.New(words, metric.NewCounter(metric.Edit), opts) })
	t.Logf("words: the store adds %.2f B/item, a plain tree %.2f", store, tree)
	if store > 16 {
		t.Errorf("a store of %d words adds %.2f B/item to the heap, want <= 16", n, store)
	}

	rng := rand.New(rand.NewPCG(1, 8))
	vectors := make([][]float64, n)
	for i := range vectors {
		vectors[i] = randVec(rng, 8)
	}
	store = weigh(func() (any, error) { return New(vectors, metric.L2, Options{Tree: opts}) })
	tree = weigh(func() (any, error) { return mvp.New(vectors, metric.NewCounter(metric.L2), opts) })
	t.Logf("vectors: the store adds %.2f B/item, a plain tree %.2f", store, tree)
	if store > tree+1 {
		t.Errorf("a store of %d vectors adds %.2f B/item to the heap, its tree alone %.2f: want at most 1 more", n, store, tree)
	}
	// The inputs outlive every measurement, or collecting them would be
	// credited to the index.
	runtime.KeepAlive(words)
	runtime.KeepAlive(vectors)
	runtime.KeepAlive(seen)
}
