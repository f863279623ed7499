package vptree

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
	"mvptree/internal/testutil"
)

// vectors returns n uniform dim-dimensional vectors fixed by seed.
func vectors(seed uint64, n, dim int) [][]float64 {
	return dataset.UniformVectors(rand.New(rand.NewPCG(seed, seed^0x51)), n, dim)
}

// allocTree builds the tree the allocation pins below query: 2000
// vectors in [0,1]^8, so far is at distance > 200 from all of them.
func allocTree(t *testing.T, opts Options) (tree *Tree[[]float64], far, near []float64) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	items := vectors(13, 2000, 8)
	tree, err := New(items, metric.NewCounter(metric.L2), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree, []float64{100, 100, 100, 100, 100, 100, 100, 100}, items[17]
}

// TestSteadyStateQueryAllocations pins the zero-alloc serving claim for
// the trees this constructor builds: once the scratch pool is warm
// (AllocsPerRun's first run), a range query that returns nothing
// allocates nothing and a kNN query at most its result slice — exact or
// budgeted, which is the same pooled traversal with a counter switched on.
func TestSteadyStateQueryAllocations(t *testing.T) {
	tree, far, near := allocTree(t, Options{Order: 3, Build: Build{Seed: 7}})
	if got := tree.Range(far, 0.5); len(got) != 0 {
		t.Fatalf("far query returned %d results, want 0", len(got))
	}
	budget := index.SearchOptions{Budget: 1 << 40}
	for name, q := range map[string]index.Query[[]float64]{
		"range": index.RangeQuery(far, 0.5), "budgeted range": {Point: far, Radius: 0.5, Opts: budget},
		"knn": index.KNNQuery(near, 10), "budgeted knn": {Point: near, K: 10, Opts: budget},
	} {
		limit := float64(min(q.K, 1)) // the result slice
		if allocs := testing.AllocsPerRun(200, func() { tree.Search(q) }); allocs > limit {
			t.Errorf("%s allocated %.1f times per query, want <= %.0f", name, allocs, limit)
		}
	}
}

// TestCascadeSteadyStateAllocations re-pins it with the cascade enabled.
func TestCascadeSteadyStateAllocations(t *testing.T) {
	tree, far, near := allocTree(t, Options{Order: 3, LeafCapacity: 20, Build: Build{Seed: 7}})
	if err := tree.EnableCascade(cascade.Options{}); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { tree.Range(far, 0.5) }); allocs != 0 {
		t.Errorf("cascaded empty-result Range allocated %.1f times per query, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { tree.KNN(near, 10) }); allocs > 1 {
		t.Errorf("cascaded KNN allocated %.1f times per query, want <= 1 (the result slice)", allocs)
	}
}

// TestBatchSteadyStateAllocations pins the pooled batch scratch: once
// warm, a batch of empty-result range queries allocates nothing.
func TestBatchSteadyStateAllocations(t *testing.T) {
	tree, far, _ := allocTree(t, Options{Order: 3, LeafCapacity: 16, Build: Build{Seed: 9}})
	reqs := make([]index.Query[[]float64], 16)
	for i := range reqs {
		reqs[i] = index.RangeQuery(far, 0.5)
	}
	results := make([]index.Result[[]float64], len(reqs))
	if allocs := testing.AllocsPerRun(100, func() { tree.SearchBatch(reqs, results) }); allocs != 0 {
		t.Errorf("steady-state batch Range allocated %.1f times per batch, want 0", allocs)
	}
}

// TestQueryAllocationsUnaffectedByHooks: an armed Observer must not add
// any allocation per query over the disarmed nil-check fast path.
func TestQueryAllocationsUnaffectedByHooks(t *testing.T) {
	tree, _, q := allocTree(t, Options{Order: 2, Build: Build{Seed: 7}})
	measure := func() (rng, knn float64) {
		return testing.AllocsPerRun(100, func() { tree.RangeWithStats(q, 0.3) }),
			testing.AllocsPerRun(100, func() { tree.KNNWithStats(q, 5) })
	}
	disarmedRange, disarmedKNN := measure()
	tree.SetObserver(obs.NewObserver(1))
	armedRange, armedKNN := measure()
	if armedRange > disarmedRange || armedKNN > disarmedKNN {
		t.Errorf("observer added allocations: range %.1f armed vs %.1f, knn %.1f vs %.1f", armedRange, disarmedRange, armedKNN, disarmedKNN)
	}
}
