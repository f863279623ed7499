package vptree

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/metric"
)

// TestCascadeInvariance checks byte-identical results and
// never-increasing distance counts with the cascade enabled — the
// bucketed vp-tree is where the cascade matters most, since its leaves
// have one stored distance per item and no PATH to filter with.
func TestCascadeInvariance(t *testing.T) {
	items := vectors(19, 3000, 12)
	opts := Options{Order: 3, LeafCapacity: 20, Build: Build{Seed: 7}}
	off, err := New(items, metric.NewCounter(metric.L2), opts)
	if err != nil {
		t.Fatal(err)
	}
	on, err := New(items, metric.NewCounter(metric.L2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := on.EnableCascade(cascade.Options{}); err != nil {
		t.Fatal(err)
	}
	if on.Cascade() == nil {
		t.Fatal("EnableCascade left the filter nil")
	}
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
