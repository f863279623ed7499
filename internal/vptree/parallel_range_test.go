package vptree

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

// Same determinism contract as the mvp-tree: every worker count
// reproduces the sequential results, order, stats and counter delta.
func TestRangeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 2))
	w := testutil.NewVectorWorkload(rng, 500, 8, 12, metric.L2)
	for _, opts := range []Options{
		{Order: 2, LeafCapacity: 1, Build: Build{Seed: 7}},
		{Order: 2, LeafCapacity: 8, Build: Build{Seed: 7}},
		{Order: 3, LeafCapacity: 16, Build: Build{Seed: 7}},
		{Order: 4, LeafCapacity: 5, Build: Build{Seed: 7}},
	} {
		c := metric.NewCounter(w.Dist)
		tree, err := New(w.Items, c, opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for _, q := range w.Queries {
			for _, r := range []float64{0, 0.2, 0.5, 1.0} {
				before := c.Count()
				want, wantStats := tree.RangeWithStats(q, r)
				seqCost := c.Count() - before
				for _, workers := range []int{1, 2, 3, 8} {
					before = c.Count()
					got, gotStats := tree.rangeParallel(q, r, workers)
					cost := c.Count() - before
					if len(got) != len(want) {
						t.Fatalf("workers=%d q=%d r=%g: got %d results, want %d", workers, q, r, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("workers=%d q=%d r=%g: result[%d]=%d, want %d (order must match)", workers, q, r, i, got[i], want[i])
						}
					}
					if gotStats != wantStats {
						t.Fatalf("workers=%d q=%d r=%g: stats %+v, want %+v", workers, q, r, gotStats, wantStats)
					}
					if cost != seqCost {
						t.Fatalf("workers=%d q=%d r=%g: counter delta %d, want %d", workers, q, r, cost, seqCost)
					}
				}
			}
		}
	}
}
