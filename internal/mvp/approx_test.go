package mvp

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

// knnBudget answers a kNN query under a distance budget through Search
// and reports whether the traversal finished within it.
func knnBudget[T any](tree *Tree[T], q T, k int, budget int64) ([]index.Neighbor[T], bool) {
	res := tree.Search(index.Query[T]{Point: q, K: k, Opts: index.SearchOptions{Budget: budget}})
	return res.Neighbors, !res.Exhausted()
}

func TestSearchBudgetUnlimitedIsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(111, 9))
	w := testutil.NewVectorWorkload(rng, 500, 8, 10, metric.L2)
	eachV(t, Options{Partitions: 3, LeafCapacity: 20, PathLength: 4, Build: Build{Seed: 7}}, func(t *testing.T, opts Options) {
		tree, _ := buildWorkloadTree(t, w, opts)
		for _, q := range w.Queries {
			for _, k := range []int{1, 5, 20} {
				got, exact := knnBudget(tree, q, k, 1<<40)
				if !exact {
					t.Fatalf("unlimited budget reported inexact")
				}
				want := tree.KNN(q, k)
				if len(got) != len(want) {
					t.Fatalf("k=%d: %d vs %d results", k, len(got), len(want))
				}
				for i := range got {
					if got[i].Dist != want[i].Dist {
						t.Fatalf("k=%d: dist[%d] = %g, want %g", k, i, got[i].Dist, want[i].Dist)
					}
				}
			}
		}
	})
}

func TestSearchBudgetRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewPCG(112, 9))
	w := testutil.NewVectorWorkload(rng, 3000, 20, 10, metric.L2) // high-dim: exact kNN ≈ linear
	eachV(t, Options{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 7}}, func(t *testing.T, opts Options) {
		tree, c := buildWorkloadTree(t, w, opts)
		for _, budget := range []int64{10, 100, 1000} {
			for _, q := range w.Queries {
				c.Reset()
				_, exact := knnBudget(tree, q, 5, budget)
				if c.Count() > budget {
					t.Fatalf("budget %d: spent %d distance computations", budget, c.Count())
				}
				if exact && c.Count() >= int64(tree.Len()) {
					t.Fatalf("budget %d: claimed exact after full scan", budget)
				}
			}
		}
	})
}

func TestSearchBudgetRecallGrowsWithBudget(t *testing.T) {
	rng := rand.New(rand.NewPCG(113, 9))
	w := testutil.NewVectorWorkload(rng, 4000, 20, 20, metric.L2)
	tree, _ := buildWorkloadTree(t, w, Options{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 7}})
	const k = 10
	recall := func(budget int64) float64 {
		hits, total := 0, 0
		for _, q := range w.Queries {
			truth := map[int]bool{}
			for _, nb := range w.Truth.KNN(q, k) {
				truth[nb.Item] = true
			}
			got, _ := knnBudget(tree, q, k, budget)
			for _, nb := range got {
				if truth[nb.Item] {
					hits++
				}
			}
			total += k
		}
		return float64(hits) / float64(total)
	}
	low := recall(100)
	mid := recall(1000)
	if mid <= low {
		t.Errorf("recall did not grow with budget: %.3f @100 vs %.3f @1000", low, mid)
	}
	if mid < 0.3 {
		t.Errorf("recall %.3f at budget 1000 over 4000 items; anytime behaviour broken", mid)
	}
}

func TestSearchBudgetEdgeCases(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	tree, err := New([][]float64{{1}, {2}, {3}}, dist, Options{LeafCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, exact := knnBudget(tree, []float64{0}, 0, 100); got != nil || !exact {
		t.Errorf("k=0: %v, %v", got, exact)
	}
	empty, err := New(nil, dist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, exact := knnBudget(empty, []float64{0}, 2, 100); got != nil || !exact {
		t.Errorf("empty: %v, %v", got, exact)
	}
}
