package mvp

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

// The intra-query parallel range contract: for every worker count the
// result slice is byte-identical to the sequential traversal — same
// items, same order — and the stats and metric-counter delta are
// identical too.
func TestRangeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 2))
	w := testutil.NewVectorWorkload(rng, 600, 8, 15, metric.L2)
	for _, opts := range optionMatrix {
		tree, c := buildWorkloadTree(t, w, opts)
		for _, q := range w.Queries {
			for _, r := range []float64{0, 0.2, 0.5, 0.9, 1.5} {
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

func TestRangeParallelEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 2))
	w := testutil.NewVectorWorkload(rng, 40, 4, 4, metric.L2)
	tree, _ := buildWorkloadTree(t, w, Options{Partitions: 2, LeafCapacity: 4, Build: Build{Seed: 7}})
	if got, _ := tree.rangeParallel(w.Queries[0], -1, 4); got != nil {
		t.Fatalf("negative radius: got %v, want nil", got)
	}
	// More workers than frontier subtrees.
	seq := tree.Range(w.Queries[0], 0.8)
	par, _ := tree.rangeParallel(w.Queries[0], 0.8, 64)
	if len(seq) != len(par) {
		t.Fatalf("workers=64: got %d results, want %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("workers=64: result[%d] mismatch", i)
		}
	}
	// Empty tree.
	empty, err := New[int](nil, metric.NewCounter(w.Dist), Options{Partitions: 2, LeafCapacity: 4})
	if err != nil {
		t.Fatalf("New(empty): %v", err)
	}
	if got, _ := empty.rangeParallel(w.Queries[0], 1, 4); got != nil {
		t.Fatalf("empty tree: got %v, want nil", got)
	}
}
