package mvp

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
	"mvptree/internal/obs"
	"mvptree/internal/testutil"
)

// TestQueryAllocationsUnaffectedByHooks pins the tentpole's "free when
// disabled" claim at the structure level: arming an Observer must not
// add a single allocation per query over the disarmed fast path (the
// Span is a value and the observer records into preallocated shard
// atomics), and the disarmed path itself must not regress.
func TestQueryAllocationsUnaffectedByHooks(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	rng := rand.New(rand.NewPCG(3, 9))
	items := make([][]float64, 800)
	for i := range items {
		v := make([]float64, 8)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = v
	}
	eachV(t, Options{Partitions: 2, LeafCapacity: 16, PathLength: 3, Build: Build{Seed: 11}}, func(t *testing.T, opts Options) {
		tree, err := New(items, metric.NewCounter(metric.L2), opts)
		if err != nil {
			t.Fatal(err)
		}
		q := items[0]

		disarmedRange := testing.AllocsPerRun(100, func() { tree.RangeWithStats(q, 0.3) })
		disarmedKNN := testing.AllocsPerRun(100, func() { tree.KNNWithStats(q, 5) })

		tree.SetObserver(obs.NewObserver(1))
		defer tree.SetObserver(nil)
		armedRange := testing.AllocsPerRun(100, func() { tree.RangeWithStats(q, 0.3) })
		armedKNN := testing.AllocsPerRun(100, func() { tree.KNNWithStats(q, 5) })

		if armedRange > disarmedRange {
			t.Errorf("range: observer added allocations: %.1f armed vs %.1f disarmed", armedRange, disarmedRange)
		}
		if armedKNN > disarmedKNN {
			t.Errorf("knn: observer added allocations: %.1f armed vs %.1f disarmed", armedKNN, disarmedKNN)
		}
	})
}
