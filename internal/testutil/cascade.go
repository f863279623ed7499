package testutil

import (
	"reflect"
	"testing"

	"mvptree/internal/index"
)

// CheckCascade pins the bound cascade's contract on twins of one
// structure, built alike, the cascade armed on one: over the grid of
// queries × (radii, ks) every answer of on is the answer of off, item for
// item and in order; each twin's stats add up to its counter's delta; a
// query on on computes at most extra distances more than on off — the
// pivots it pays up front, per tree it visits — and summed over the grid
// strictly fewer; and the cascade filtered something. extra 0 says on is
// expected to have been left uncascaded: then nothing is filtered and
// every cost is equal.
func CheckCascade[T any](t *testing.T, off, on index.StatsIndex[T], extra int, queries []T, radii []float64, ks []int) {
	t.Helper()
	var offTotal, onTotal int64
	var filtered int
	check := func(what string, arg any, ask func(index.StatsIndex[T]) (any, index.SearchStats)) {
		t.Helper()
		var res [2]any
		var cost [2]int64
		for i, x := range []index.StatsIndex[T]{off, on} {
			before := x.DistanceCount()
			r, s := ask(x)
			res[i], cost[i] = r, x.DistanceCount()-before
			if s.Distances() != cost[i] {
				t.Fatalf("%s %v: stats add up to %d distances, the counter moved by %d (on=%v)", what, arg, s.Distances(), cost[i], i == 1)
			}
			if i == 1 {
				filtered += s.FilteredByCascade
			} else if s.FilteredByCascade != 0 {
				t.Fatalf("%s %v: the unarmed twin reports %d candidates filtered by a cascade", what, arg, s.FilteredByCascade)
			}
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Fatalf("%s %v: the cascade changed the answer\noff %v\non  %v", what, arg, res[0], res[1])
		}
		if cost[1] > cost[0]+int64(extra) {
			t.Fatalf("%s %v: %d distances armed, %d unarmed: more than %d over", what, arg, cost[1], cost[0], extra)
		}
		offTotal, onTotal = offTotal+cost[0], onTotal+cost[1]
	}
	for _, q := range queries {
		for _, r := range radii {
			check("range", r, func(x index.StatsIndex[T]) (any, index.SearchStats) { return x.RangeWithStats(q, r) })
		}
		for _, k := range ks {
			check("knn", k, func(x index.StatsIndex[T]) (any, index.SearchStats) { return x.KNNWithStats(q, k) })
		}
	}
	t.Logf("%d distances armed, %d unarmed; %d candidates filtered by the cascade", onTotal, offTotal, filtered)
	switch {
	case extra == 0 && (filtered != 0 || onTotal != offTotal):
		t.Errorf("uncascaded twin: %d candidates filtered, %d distances against %d", filtered, onTotal, offTotal)
	case extra > 0 && filtered == 0:
		t.Errorf("the cascade never filtered a candidate")
	case extra > 0 && onTotal >= offTotal:
		t.Errorf("the cascade saved nothing over the grid: %d distances armed, %d unarmed", onTotal, offTotal)
	}
}
