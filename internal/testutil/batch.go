package testutil

import (
	"testing"

	"mvptree/internal/index"
	"mvptree/internal/metric"
)

// CheckBatch pins the SearchBatch contract: for every batch size,
// results, neighbor order, SearchStats, and the tree's counter delta are
// byte-identical to per-query Search calls. dist is the counter tree
// measures through; eq compares two items.
func CheckBatch[T any](t *testing.T, tree index.BatchSearcher[T], dist *metric.Counter[T],
	reqs []index.Query[T], sizes []int, eq func(a, b T) bool) {
	t.Helper()

	want := make([]index.Result[T], len(reqs))
	wantDelta := make([]int64, len(reqs))
	for i, req := range reqs {
		c0 := dist.Count()
		want[i] = tree.Search(req)
		wantDelta[i] = dist.Count() - c0
	}

	for _, b := range sizes {
		for lo := 0; lo < len(reqs); lo += b {
			hi := min(lo+b, len(reqs))
			chunk := reqs[lo:hi]
			got := make([]index.Result[T], len(chunk))
			c0 := dist.Count()
			tree.SearchBatch(chunk, got)
			delta := dist.Count() - c0
			var wd int64
			for i := lo; i < hi; i++ {
				wd += wantDelta[i]
			}
			if delta != wd {
				t.Errorf("B=%d chunk [%d,%d): counter delta %d, sequential %d", b, lo, hi, delta, wd)
			}
			for i := range chunk {
				w, g := want[lo+i], got[i]
				if w.Stats != g.Stats {
					t.Errorf("B=%d query %d: stats differ\nseq   %+v\nbatch %+v", b, lo+i, w.Stats, g.Stats)
				}
				if len(w.Items) != len(g.Items) {
					t.Fatalf("B=%d query %d: %d items sequential, %d batched", b, lo+i, len(w.Items), len(g.Items))
				}
				for k := range w.Items {
					if !eq(w.Items[k], g.Items[k]) {
						t.Fatalf("B=%d query %d: item %d differs", b, lo+i, k)
					}
				}
				if len(w.Neighbors) != len(g.Neighbors) {
					t.Fatalf("B=%d query %d: %d neighbors sequential, %d batched", b, lo+i, len(w.Neighbors), len(g.Neighbors))
				}
				for k := range w.Neighbors {
					if w.Neighbors[k].Dist != g.Neighbors[k].Dist || !eq(w.Neighbors[k].Item, g.Neighbors[k].Item) {
						t.Fatalf("B=%d query %d: neighbor %d differs (%v vs %v)", b, lo+i, k,
							w.Neighbors[k].Dist, g.Neighbors[k].Dist)
					}
				}
			}
		}
	}
}
