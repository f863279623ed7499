package vptree

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

// TestSteadyStateQueryAllocations pins the PR's zero-alloc serving claim
// absolutely for the vp-tree: a range query that returns nothing
// performs zero heap allocations, and a kNN query at most one — the
// result slice. (AllocsPerRun runs the body once before measuring,
// which warms the scratch pool.)
func TestSteadyStateQueryAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	rng := rand.New(rand.NewPCG(13, 31))
	items := make([][]float64, 2000)
	for i := range items {
		v := make([]float64, 8)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = v
	}
	tree, err := New(items, metric.NewCounter(metric.L2),
		Options{Order: 3, Build: Build{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}

	far := []float64{100, 100, 100, 100, 100, 100, 100, 100}
	near := items[17]

	if got := tree.Range(far, 0.5); len(got) != 0 {
		t.Fatalf("far query returned %d results, want 0", len(got))
	}
	if got := tree.KNN(near, 10); len(got) != 10 {
		t.Fatalf("KNN returned %d results, want 10", len(got))
	}

	if allocs := testing.AllocsPerRun(200, func() { tree.Range(far, 0.5) }); allocs != 0 {
		t.Errorf("empty-result Range allocated %.1f times per query, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { tree.KNN(near, 10) }); allocs > 1 {
		t.Errorf("KNN allocated %.1f times per query, want <= 1 (the result slice)", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { tree.RangeWithStats(far, 0.5) }); allocs != 0 {
		t.Errorf("empty-result RangeWithStats allocated %.1f times per query, want 0", allocs)
	}
	// A budgeted query is the same pooled traversal with a counter
	// switched on, so it allocates no more than the exact one.
	budget := index.SearchOptions{Budget: 1 << 40}
	if allocs := testing.AllocsPerRun(200, func() {
		tree.Search(index.Query[[]float64]{Point: far, Radius: 0.5, Opts: budget})
	}); allocs != 0 {
		t.Errorf("budgeted empty-result range Search allocated %.1f times per query, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		tree.Search(index.Query[[]float64]{Point: near, K: 10, Opts: budget})
	}); allocs > 1 {
		t.Errorf("budgeted kNN Search allocated %.1f times per query, want <= 1 (the result slice)", allocs)
	}
}
