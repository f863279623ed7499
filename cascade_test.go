package mvptree

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/dataset"
	"mvptree/internal/testutil"
)

// The cascade invariance table: the two trees supporting WithCascade,
// on every workload class of the paper's evaluation plus the [BK73]
// word corpus, must hold the cascade's contract
// (testutil.CheckCascade): byte-identical answers armed and unarmed, at
// most the pivots' distances more per query and fewer over the grid.
// This is the facade-level twin of the per-package cascade tests: it
// exercises the WithCascade construction option itself and pins the
// guarantee over uniform vectors, clustered vectors and the discrete
// edit-distance metric in one table. (The comparison structures refuse
// the option: TestCapabilitiesTable.)

// cascadeCase builds the cascade-off and cascade-on twins of one
// structure over the same items and seed; pivots is what arming it pays
// for, zero where the structure is left uncascaded.
type cascadeCase[T any] struct {
	name   string
	pivots int
	build  func(items []T, dist DistanceFunc[T], cas bool) (*Tree[T], error)
}

func cascadeCases[T any]() []cascadeCase[T] {
	opt := func(cas bool) []IndexOption[T] {
		if !cas {
			return nil
		}
		return []IndexOption[T]{WithCascade[T](CascadeOptions{})}
	}
	seed := BuildOptions{Seed: 7}
	vp := func(capacity int) func(items []T, dist DistanceFunc[T], cas bool) (*Tree[T], error) {
		return func(items []T, dist DistanceFunc[T], cas bool) (*Tree[T], error) {
			return NewVP(items, dist, VPOptions{Order: 2, LeafCapacity: capacity, Build: seed}, opt(cas)...)
		}
	}
	return []cascadeCase[T]{
		{"mvpt", cascade.DefaultPivots, func(items []T, dist DistanceFunc[T], cas bool) (*Tree[T], error) {
			return New(items, dist, Options{Partitions: 3, LeafCapacity: 20, PathLength: 5, Build: seed}, opt(cas)...)
		}},
		{"vpt", cascade.DefaultPivots, vp(20)},
		// A classic vp-tree keeps no leaf items to choose pivots from:
		// WithCascade leaves it as it is, silently.
		{"vpt-classic", 0, vp(1)},
	}
}

// checkCascadeInvariance runs the off/on twins of the trees over the
// query grid.
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
			if got := on.Shape().CascadePivots; got != tc.pivots {
				t.Fatalf("WithCascade armed %d pivots, want %d", got, tc.pivots)
			}
			testutil.CheckCascade(t, off, on, tc.pivots, queries, radii, ks)
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
