package metric

import "math"

// RowDistanceFunc is the exact one-to-many form of a DistanceFunc that
// construction measures its rows through: one point p against the items
// picked by ids, writing into out[i] a value bit-for-bit equal to
// exact(items[ids[i]], p). There is no bound and nothing is abandoned.
// The ids name the items in place, so a caller partitioning a
// permutation of positions never gathers them. len(out) must be at least
// len(ids).
//
// The payoff is whatever of p a kernel can prepare once for the whole
// row: EditRow builds p's match table once instead of once per pair.
type RowDistanceFunc[T any] func(p T, items []T, ids []int32, out []float64)

// checkBlockLens validates L2Block's slice lengths.
func checkBlockLens[T any](qs []T, bounds, out []float64) {
	if len(out) != len(qs) {
		panic("metric: block output length does not match query count")
	}
	if bounds != nil && len(bounds) != len(qs) {
		panic("metric: block bounds length does not match query count")
	}
}

// L2Block writes L2UpTo(qs[j], p, bounds[j]) into out[j] for every
// query (bounds nil: +Inf, every distance exact). Nothing in the library
// calls it and no metric registers it: SearchBatch measures each member
// through the Counter's one bounded kernel. It stays only because the
// benchmark harness times it as its metric.l2_block_ns row.
func L2Block(p []float64, qs [][]float64, bounds, out []float64) {
	checkBlockLens(qs, bounds, out)
	for j := range qs {
		b := math.Inf(1)
		if bounds != nil {
			b = bounds[j]
		}
		out[j] = L2UpTo(qs[j], p, b)
	}
}
