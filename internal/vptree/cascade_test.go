package vptree

import (
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

// TestCascadeInvariance checks the cascade's contract
// (testutil.CheckCascade) on the bucketed vp-tree, where it matters most:
// its leaves have one stored distance per item and no PATH to filter with.
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
	testutil.CheckCascade(t, off, on, cascade.DefaultPivots, vectors(5, 40, 12), []float64{0.3, 0.6, 0.9}, []int{1, 10, 50})
}
