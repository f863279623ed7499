package mvp

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

var cascadeOpts = Options{Partitions: 3, LeafCapacity: 40, PathLength: 4, Build: Build{Seed: 7}}

// newCascadePair builds two identical trees over the same items and
// enables the cascade on the second.
func newCascadePair(t *testing.T, items [][]float64, opts Options) (off, on *Tree[[]float64]) {
	t.Helper()
	var err error
	if off, err = New(items, metric.NewCounter(metric.L2), opts); err != nil {
		t.Fatal(err)
	}
	if on, err = New(items, metric.NewCounter(metric.L2), opts); err != nil {
		t.Fatal(err)
	}
	if err := on.EnableCascade(cascade.Options{}); err != nil {
		t.Fatal(err)
	}
	if on.Cascade() == nil {
		t.Fatal("EnableCascade left the filter nil")
	}
	return off, on
}

// TestCascadeInvariance checks the core cascade contract on both
// trees: byte-identical results with cascade on and off, and per-query
// distance counts that never increase.
func TestCascadeInvariance(t *testing.T) {
	eachV(t, cascadeOpts, checkCascadeInvariance)
}

func checkCascadeInvariance(t *testing.T, opts Options) {
	items := uniformItems(41, 3000, 12)
	off, on := newCascadePair(t, items, opts)
	rng := rand.New(rand.NewPCG(5, 5))
	var pruned int
	for qi := 0; qi < 40; qi++ {
		q := make([]float64, 12)
		for j := range q {
			q[j] = rng.Float64()
		}
		for _, r := range []float64{0.3, 0.6, 0.9} {
			a, sa := off.RangeWithStats(q, r)
			b, sb := on.RangeWithStats(q, r)
			if len(a) != len(b) {
				t.Fatalf("r=%v: %d results off, %d on", r, len(a), len(b))
			}
			for i := range a {
				for j := range a[i] {
					if a[i][j] != b[i][j] {
						t.Fatalf("r=%v: result %d differs", r, i)
					}
				}
			}
			if sb.Distances() > sa.Distances() {
				t.Fatalf("r=%v: cascade-on used %d distances, off %d", r, sb.Distances(), sa.Distances())
			}
			pruned += sb.FilteredByCascade
		}
		for _, k := range []int{1, 10, 50} {
			a, sa := off.KNNWithStats(q, k)
			b, sb := on.KNNWithStats(q, k)
			if len(a) != len(b) {
				t.Fatalf("k=%d: %d results off, %d on", k, len(a), len(b))
			}
			for i := range a {
				if a[i].Dist != b[i].Dist {
					t.Fatalf("k=%d: neighbor %d dist %v off, %v on", k, i, a[i].Dist, b[i].Dist)
				}
			}
			if sb.Distances() > sa.Distances() {
				t.Fatalf("k=%d: cascade-on used %d distances, off %d", k, sb.Distances(), sa.Distances())
			}
			pruned += sb.FilteredByCascade
		}
	}
	if pruned == 0 {
		t.Fatal("cascade never pruned a candidate across 40 queries")
	}
}

// TestCascadeSteadyStateAllocations re-pins the PR 4 zero-alloc serving
// guarantee with the cascade enabled: the pooled per-query cache must
// not add a steady-state allocation.
func TestCascadeSteadyStateAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	items := uniformItems(13, 2000, 8)
	eachV(t, cascadeOpts, func(t *testing.T, opts Options) {
		_, tree := newCascadePair(t, items, opts)
		far := []float64{100, 100, 100, 100, 100, 100, 100, 100}
		near := items[17]
		tree.Range(far, 0.5)
		tree.KNN(near, 10)
		if allocs := testing.AllocsPerRun(200, func() { tree.Range(far, 0.5) }); allocs != 0 {
			t.Errorf("cascaded empty-result Range allocated %.1f times per query, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() { tree.KNN(near, 10) }); allocs > 1 {
			t.Errorf("cascaded KNN allocated %.1f times per query, want <= 1 (the result slice)", allocs)
		}
	})
}

// TestCascadeConcurrentQueries runs cascaded queries from many
// goroutines for the race detector: caches are pooled but single-owner.
func TestCascadeConcurrentQueries(t *testing.T) {
	items := uniformItems(3, 1200, 8)
	_, on := newCascadePair(t, items, cascadeOpts)
	done := make(chan struct{})
	for g := 0; g < 6; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewPCG(uint64(g), 9))
			for i := 0; i < 60; i++ {
				q := make([]float64, 8)
				for j := range q {
					q[j] = rng.Float64()
				}
				on.Range(q, 0.4)
				on.KNN(q, 5)
			}
		}(g)
	}
	for g := 0; g < 6; g++ {
		<-done
	}
}
