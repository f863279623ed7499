package shard

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/bench"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// TestShellDistances logs distances a query, round robin against shells
// at 2 and 4 shards, on the benchmark's batch-clustered inputs at seed 1:
// 50,000 clustered vectors of dim 20 (clusters of 1,000, eps 0.15), 256
// queries sampled from them, the radius calibrated to 0.2 % selectivity,
// k = 10, mvpt(3,80,5) shards and its 0.75/0.25 range/kNN mix. Shells
// must cost less than round robin on the mix: each of its shards is a
// region rather than a thinned copy of the whole space, and kNN visits
// the nearest first.
func TestShellDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four indexes over 50,000 vectors")
	}
	items := dataset.ClusteredVectors(rand.New(rand.NewPCG(1, 0)), 50000, 20, 1000, 0.15)
	queries := dataset.SampleQueries(rand.New(rand.NewPCG(1, 1)), items, 256)
	radius, err := bench.CalibrateRadius(rand.New(rand.NewPCG(1, 2)), items, metric.L2, 0.002, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree := mvp.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5}
	for _, s := range []int{2, 4} {
		var mix [2]float64
		for ai, a := range []Assignment{RoundRobin, Shells} {
			c := metric.NewCounter(metric.L2)
			x, err := New(items, c, MVP[[]float64](tree), Options{Shards: s, Assignment: a, Workers: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var rangeD, knnD, skipped int64
			for _, q := range queries {
				req := index.RangeQuery(q, radius)
				rangeD += x.Search(req).Stats.Distances()
				knnD += x.Search(index.KNNQuery(q, 10)).Stats.Distances()
				var st index.SearchStats
				for _, g := range x.gaps(q, &st) {
					if excludes(g, req, nil) {
						skipped++
					}
				}
			}
			n := float64(len(queries))
			mix[ai] = 0.75*float64(rangeD)/n + 0.25*float64(knnD)/n
			t.Logf("S=%d %-10v range %8.0f  kNN %8.0f  mix %8.0f distances a query", s, a, float64(rangeD)/n, float64(knnD)/n, mix[ai])
			if a == Shells {
				t.Logf("S=%d %-10v %.3f shards skipped a range query", s, a, float64(skipped)/n)
			}
		}
		t.Logf("S=%d shells against round robin on the mix: %+.1f %%", s, 100*(mix[1]/mix[0]-1))
		if mix[1] >= mix[0] {
			t.Errorf("S=%d: shells cost %.0f distances a query on the mix, round robin %.0f", s, mix[1], mix[0])
		}
	}
}
