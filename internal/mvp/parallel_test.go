package mvp

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

func TestParallelBuildIdenticalToSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 6))
	w := testutil.NewVectorWorkload(rng, 3000, 10, 10, metric.L2)
	eachV(t, Options{Partitions: 3, LeafCapacity: 40, PathLength: 5, Build: Build{Seed: 8}}, func(t *testing.T, opts Options) {
		seq, seqC := buildWorkloadTree(t, w, opts)
		opts.Workers = 8
		par, parC := buildWorkloadTree(t, w, opts)

		if seq.BuildCost() != par.BuildCost() {
			t.Errorf("build cost differs: sequential %d, parallel %d", seq.BuildCost(), par.BuildCost())
		}
		// Identical structure ⟹ identical per-query distance counts.
		for _, q := range w.Queries {
			for _, r := range []float64{0.1, 0.4} {
				seqC.Reset()
				a := seq.Range(q, r)
				parC.Reset()
				b := par.Range(q, r)
				if seqC.Count() != parC.Count() {
					t.Fatalf("query cost differs: %d vs %d", seqC.Count(), parC.Count())
				}
				if len(a) != len(b) {
					t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
				}
			}
		}
		// And identical invariants.
		checkNode(t, par, 0, w.Dist, nil)
	})
}

func TestParallelBuildCorrectness(t *testing.T) {
	rng := rand.New(rand.NewPCG(102, 6))
	w := testutil.NewVectorWorkload(rng, 1500, 8, 8, metric.L2)
	tree, _ := buildWorkloadTree(t, w, Options{Partitions: 2, LeafCapacity: 10, PathLength: 4, Build: Build{Seed: 3, Workers: 4}})
	testutil.CheckRange(t, "mvpt-parallel", tree, w, []float64{0, 0.2, 0.6})
	testutil.CheckKNN(t, "mvpt-parallel", tree, w, []int{1, 5})
}
