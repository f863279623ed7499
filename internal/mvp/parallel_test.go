package mvp

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"mvptree/internal/build"
	"mvptree/internal/codec"
	"mvptree/internal/dataset"
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

// TestParallelBuildIdenticalAtScale builds the benchmark's two trees —
// 50 000 uniform dim-20 vectors and 50 000 words at the paper's options —
// where the pool runs a node's first split beside its second vantage
// point's row, its shells' splits and its leaves' seal at once: v = 2
// with the farthest second vantage point, v = 2 with RandomSecondVantage,
// and v = 1, each at Workers 1, 2 and 8, with the same Save bytes and
// build stats (wall time and worker count aside) at every worker count.
func TestParallelBuildIdenticalAtScale(t *testing.T) {
	n := 50000
	if testutil.RaceEnabled {
		n = 8000 // still a pooled root, at a race-instrumented pace
	}
	vectors := uniformItems(31, n, 20)
	words := dataset.Words(rand.New(rand.NewPCG(31, 5)), n, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	paper := Options{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 11}}
	random, one := paper, paper
	random.RandomSecondVantage = true
	one.Vantages = 1
	for name, opts := range map[string]Options{"farthest": paper, "random": random, "v1": one} {
		t.Run(name, func(t *testing.T) {
			checkWorkerInvariance(t, "vectors/L2", vectors, metric.L2, codec.EncodeVector, opts)
			checkWorkerInvariance(t, "words/Edit", words, metric.Edit, codec.EncodeString, opts)
		})
	}
}

func checkWorkerInvariance[T any](t *testing.T, name string, items []T, dist metric.DistanceFunc[T], enc ItemEncoder[T], opts Options) {
	t.Helper()
	var want []byte
	var wantStats build.Stats
	for _, workers := range []int{1, 2, 8} {
		opts.Workers = workers
		tree, stats, err := NewWithStats(items, metric.NewCounter(dist), opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf, enc); err != nil {
			t.Fatal(err)
		}
		if stats.Workers != workers {
			t.Errorf("%s: Stats.Workers = %d at Workers=%d", name, stats.Workers, workers)
		}
		stats.Wall, stats.Workers = 0, 0
		if workers == 1 {
			want, wantStats = buf.Bytes(), stats
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: Workers=%d saves other bytes than Workers=1 (%d vs %d)", name, workers, buf.Len(), len(want))
		}
		if stats != wantStats {
			t.Errorf("%s: Workers=%d build stats %+v, Workers=1 %+v", name, workers, stats, wantStats)
		}
	}
}
