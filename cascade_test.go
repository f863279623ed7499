package mvptree

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"mvptree/internal/dataset"
)

// The cascade invariance table: the two trees supporting WithCascade,
// on every workload class of the paper's evaluation plus the [BK73]
// word corpus, must answer byte-identically with the cascade on and off
// while never spending more distance computations. This is the
// facade-level twin of the per-package cascade tests: it exercises the
// WithCascade construction option itself and pins the guarantee over
// uniform vectors, clustered vectors and the discrete edit-distance
// metric in one table. (The comparison structures refuse the option:
// TestCapabilitiesTable.)

// cascadeCase builds the cascade-off and cascade-on twins of one
// structure over the same items and seed.
type cascadeCase[T any] struct {
	name  string
	build func(items []T, dist DistanceFunc[T], cas bool) (StatsIndex[T], error)
}

func cascadeCases[T any]() []cascadeCase[T] {
	opt := func(cas bool) []IndexOption[T] {
		if !cas {
			return nil
		}
		return []IndexOption[T]{WithCascade[T](CascadeOptions{})}
	}
	seed := BuildOptions{Seed: 7}
	return []cascadeCase[T]{
		{"mvpt", func(items []T, dist DistanceFunc[T], cas bool) (StatsIndex[T], error) {
			return New(items, dist, Options{Partitions: 3, LeafCapacity: 20, PathLength: 5, Build: seed}, opt(cas)...)
		}},
		{"vpt", func(items []T, dist DistanceFunc[T], cas bool) (StatsIndex[T], error) {
			return NewVP(items, dist, VPOptions{Order: 2, Build: seed}, opt(cas)...)
		}},
	}
}

// checkCascadeInvariance runs the off/on twins of both trees over the
// query grid. Each must report a nonzero FilteredByCascade somewhere in
// it — proof the cascade engaged, not just stayed harmless.
func checkCascadeInvariance[T any](t *testing.T, items, queries []T,
	dist DistanceFunc[T], radii []float64, ks []int) {
	t.Helper()
	for _, tc := range cascadeCases[T]() {
		t.Run(tc.name, func(t *testing.T) {
			off, err := tc.build(items, dist, false)
			if err != nil {
				t.Fatalf("build (cascade off): %v", err)
			}
			on, err := tc.build(items, dist, true)
			if err != nil {
				t.Fatalf("build (cascade on): %v", err)
			}
			var pruned int
			for _, q := range queries {
				for _, r := range radii {
					offBefore := off.DistanceCount()
					resOff, _ := off.RangeWithStats(q, r)
					offCost := off.DistanceCount() - offBefore

					onBefore := on.DistanceCount()
					resOn, s := on.RangeWithStats(q, r)
					onCost := on.DistanceCount() - onBefore
					pruned += s.FilteredByCascade

					if fmt.Sprint(resOn) != fmt.Sprint(resOff) {
						t.Fatalf("range r=%g: cascade changed the result sequence", r)
					}
					if onCost > offCost {
						t.Fatalf("range r=%g: cascade cost %d distances, baseline %d", r, onCost, offCost)
					}
				}
				for _, k := range ks {
					offBefore := off.DistanceCount()
					nnOff, _ := off.KNNWithStats(q, k)
					offCost := off.DistanceCount() - offBefore

					onBefore := on.DistanceCount()
					nnOn, s := on.KNNWithStats(q, k)
					onCost := on.DistanceCount() - onBefore
					pruned += s.FilteredByCascade

					if len(nnOff) != len(nnOn) {
						t.Fatalf("knn k=%d: %d vs %d neighbors", k, len(nnOff), len(nnOn))
					}
					for i := range nnOff {
						if nnOff[i].Dist != nnOn[i].Dist {
							t.Fatalf("knn k=%d: neighbor %d distance %g vs %g", k, i, nnOff[i].Dist, nnOn[i].Dist)
						}
					}
					if onCost > offCost {
						t.Fatalf("knn k=%d: cascade cost %d distances, baseline %d", k, onCost, offCost)
					}
				}
			}
			if pruned == 0 {
				t.Errorf("cascade never pruned a candidate on this workload")
			}
		})
	}
}

func TestCascadeInvarianceUniformVectors(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	items := dataset.UniformVectors(rng, 1200, 12)
	queries := dataset.UniformQueries(rng, 12, 12)
	checkCascadeInvariance(t, items, queries, L2,
		[]float64{0.15, 0.3, 0.5}, []int{1, 5, 10})
}

func TestCascadeInvarianceClusteredVectors(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	items := dataset.ClusteredVectors(rng, 1200, 12, 60, 0.1)
	queries := dataset.SampleQueries(rng, items, 12)
	checkCascadeInvariance(t, items, queries, L2,
		[]float64{0.2, 0.4, 0.8}, []int{1, 5, 10})
}

func TestCascadeInvarianceEditDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	words := dataset.Words(rng, 800, dataset.WordOptions{MisspellingsPer: 2})
	queries := dataset.SampleQueries(rng, words, 10)
	queries = append(queries, dataset.Words(rng, 5, dataset.WordOptions{})...)
	checkCascadeInvariance(t, words, queries, EditDistance,
		[]float64{1, 2, 3}, []int{1, 5, 10})
}
