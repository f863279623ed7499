package mvptree

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"mvptree/internal/dataset"
)

// The cross-structure quantize invariance table: every structure
// supporting WithQuantized, in both representations, must answer
// byte-identically with the pre-filter on and off while spending
// byte-identical distance counts (a certified skip is charged exactly
// like the abandoned kernel call it replaces). This is the facade-level
// twin of the per-package quantize tests: it exercises the
// WithQuantized construction option itself.

func quantizeCases[T any](mode QuantizeMode) []struct {
	name  string
	build func(items []T, dist DistanceFunc[T], on bool) (StatsIndex[T], error)
} {
	opt := func(on bool) []IndexOption[T] {
		if !on {
			return nil
		}
		return []IndexOption[T]{WithQuantized[T](mode)}
	}
	seed := BuildOptions{Seed: 7}
	return []struct {
		name  string
		build func(items []T, dist DistanceFunc[T], on bool) (StatsIndex[T], error)
	}{
		{"mvpt", func(items []T, dist DistanceFunc[T], on bool) (StatsIndex[T], error) {
			return New(items, dist, Options{Partitions: 3, LeafCapacity: 20, PathLength: 5, Build: seed}, opt(on)...)
		}},
		{"vpt", func(items []T, dist DistanceFunc[T], on bool) (StatsIndex[T], error) {
			return NewVP(items, dist, VPOptions{Order: 2, Build: seed}, opt(on)...)
		}},
		{"linear", func(items []T, dist DistanceFunc[T], on bool) (StatsIndex[T], error) {
			return NewLinear(items, dist, opt(on)...), nil
		}},
	}
}

func checkQuantizeInvariance(t *testing.T, items, queries [][]float64,
	dist DistanceFunc[[]float64], radii []float64, ks []int) {
	t.Helper()
	for _, mode := range []QuantizeMode{QuantizeSQ8} {
		for _, tc := range quantizeCases[[]float64](mode) {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				off, err := tc.build(items, dist, false)
				if err != nil {
					t.Fatalf("build (quantize off): %v", err)
				}
				on, err := tc.build(items, dist, true)
				if err != nil {
					t.Fatalf("build (quantize on): %v", err)
				}
				for _, q := range queries {
					for _, r := range radii {
						offBefore := off.DistanceCount()
						resOff, sOff := off.RangeWithStats(q, r)
						offCost := off.DistanceCount() - offBefore

						onBefore := on.DistanceCount()
						resOn, sOn := on.RangeWithStats(q, r)
						onCost := on.DistanceCount() - onBefore

						if fmt.Sprint(resOn) != fmt.Sprint(resOff) {
							t.Fatalf("range r=%g: quantize changed the result sequence", r)
						}
						if sOff != sOn {
							t.Fatalf("range r=%g: stats differ: off %+v on %+v", r, sOff, sOn)
						}
						if onCost != offCost {
							t.Fatalf("range r=%g: quantize cost %d distances, baseline %d", r, onCost, offCost)
						}
					}
					for _, k := range ks {
						offBefore := off.DistanceCount()
						nnOff, sOff := off.KNNWithStats(q, k)
						offCost := off.DistanceCount() - offBefore

						onBefore := on.DistanceCount()
						nnOn, sOn := on.KNNWithStats(q, k)
						onCost := on.DistanceCount() - onBefore

						if len(nnOff) != len(nnOn) {
							t.Fatalf("knn k=%d: %d vs %d neighbors", k, len(nnOff), len(nnOn))
						}
						for i := range nnOff {
							if nnOff[i].Dist != nnOn[i].Dist {
								t.Fatalf("knn k=%d: neighbor %d distance %g vs %g", k, i, nnOff[i].Dist, nnOn[i].Dist)
							}
						}
						if sOff != sOn {
							t.Fatalf("knn k=%d: stats differ: off %+v on %+v", k, sOff, sOn)
						}
						if onCost != offCost {
							t.Fatalf("knn k=%d: quantize cost %d distances, baseline %d", k, onCost, offCost)
						}
					}
				}
			})
		}
	}
}

func TestQuantizeInvarianceUniformVectors(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0))
	items := dataset.UniformVectors(rng, 1200, 12)
	queries := dataset.UniformQueries(rng, 10, 12)
	checkQuantizeInvariance(t, items, queries, L2,
		[]float64{0.15, 0.3, 0.5}, []int{1, 5, 10})
}

func TestQuantizeInvarianceClusteredVectors(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 0))
	items := dataset.ClusteredVectors(rng, 1200, 12, 60, 0.1)
	queries := dataset.SampleQueries(rng, items, 10)
	checkQuantizeInvariance(t, items, queries, L1,
		[]float64{0.2, 0.4, 0.8}, []int{1, 5, 10})
}

// TestQuantizeCosineWorkload pins the embedding-style path end to end:
// normalized vectors under the Cosine chord metric, with the facade
// wrapper's registered quantized shape, pre-filter on vs off.
func TestQuantizeCosineWorkload(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 0))
	items := NormalizeL2Set(dataset.UniformVectors(rng, 1000, 16))
	queries := NormalizeL2Set(dataset.UniformQueries(rng, 8, 16))
	checkQuantizeInvariance(t, items, queries, Cosine,
		[]float64{0.3, 0.7}, []int{1, 8})
}

// TestQuantizeObservability pins that a facade-built quantized index
// reports pruning through the attached Observer.
func TestQuantizeObservability(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 0))
	items := dataset.UniformVectors(rng, 2000, 16)
	ob := NewObserver(1)
	tree, err := New(items, L2,
		Options{Partitions: 3, LeafCapacity: 40, PathLength: 4, Build: BuildOptions{Seed: 2}},
		WithObserver[[]float64](ob), WithQuantized[[]float64](QuantizeSQ8))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range dataset.UniformQueries(rng, 12, 16) {
		tree.Range(q, 0.4)
		tree.KNN(q, 5)
	}
	if ob.Snapshot().Search.FilteredByQuantized == 0 {
		t.Error("observer saw no quantize-pruned candidates")
	}
}
