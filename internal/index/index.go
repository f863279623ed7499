// Package index defines the interface shared by all distance-based index
// structures in this repository, together with common result types.
package index

// Neighbor is one item of a k-nearest-neighbor result with its distance
// from the query.
type Neighbor[T any] struct {
	Item T
	Dist float64
}

// Index is a similarity-search index over a fixed set of items in a
// metric space. All implementations in this repository are static: they
// are bulk-built from a slice of items and answer queries, matching the
// paper's setting (dynamic updates are listed there as an open problem).
type Index[T any] interface {
	// Range returns every indexed item within distance r of q
	// (inclusive), in unspecified order.
	Range(q T, r float64) []T

	// KNN returns the k indexed items nearest to q, ordered by
	// ascending distance. If fewer than k items are indexed it returns
	// all of them. Ties at the k-th distance are broken arbitrarily.
	KNN(q T, k int) []Neighbor[T]

	// Len reports the number of indexed items.
	Len() int
}

// StatsIndex is an Index whose query paths also report per-query cost
// breakdowns. Every structure in this repository implements it (as does
// the dynamic store); it is the direct-call half of Searcher.
//
// The stats variants answer exactly the same traversal as Range/KNN:
// results (and their order within one query) are identical, and the
// returned SearchStats satisfy Computed + VantagePoints == the
// structure's distance-Counter delta for that query.
type StatsIndex[T any] interface {
	Index[T]

	// RangeWithStats is Range plus the query's filtering breakdown.
	RangeWithStats(q T, r float64) ([]T, SearchStats)

	// KNNWithStats is KNN plus the query's filtering breakdown.
	KNNWithStats(q T, k int) ([]Neighbor[T], SearchStats)

	// DistanceCount reports the cumulative number of distance
	// computations the structure has performed (build + queries), the
	// paper's cost metric. It is the structure's atomic Counter value,
	// read without a type-parameterized Counter handle so wrappers over
	// a different item type (the dynamic store) can satisfy it too.
	DistanceCount() int64
}
