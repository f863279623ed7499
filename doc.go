// Package mvptree is a distance-based indexing library for
// high-dimensional metric spaces, implementing the multi-vantage-point
// (mvp) tree of Bozkaya & Ozsoyoglu (SIGMOD 1997) together with the
// family of related metric index structures: vantage-point trees
// [Uhl91, Yia93], GNAT [Bri95], ball trees and BK-trees [BK73] and a
// pivot-table index in the spirit of [SW90].
//
// All structures answer the same two similarity queries over any metric
// space — range queries ("all items within distance r of q") and
// k-nearest-neighbor queries — using only a user-supplied metric
// distance function; no coordinates, no geometry. Their shared cost
// model is the number of distance computations, on the assumption that
// distances in high-dimensional or non-spatial domains (images,
// sequences, text) are expensive; every index counts its metric
// invocations, and the Counter on each tree exposes both construction
// and per-query costs.
//
// # Quick start
//
//	dist := mvptree.L2 // or any func(T, T) float64 satisfying the metric axioms
//	tree, err := mvptree.New(vectors, dist, mvptree.Options{
//		Partitions:   3,  // m: fanout is m² per node
//		LeafCapacity: 80, // k: large leaves maximize pre-computed filtering
//		PathLength:   5,  // p: ancestor distances kept per leaf point
//	})
//	if err != nil { ... }
//	near := tree.Range(query, 0.3)   // all items within 0.3 of query
//	nn := tree.KNN(query, 10)        // 10 nearest neighbors
//	cost := tree.Counter().Count()   // distance computations so far
//
// The mvp-tree is the flagship: it uses two vantage points per node
// (fanout m² with half the vantage points of an equivalent vp-tree) and
// stores, for every leaf point, its pre-computed distances to ancestor
// vantage points, which filter leaf candidates through the triangle
// inequality before any real distance computation. On the paper's
// workloads it makes 20–80% fewer distance computations than vp-trees.
//
// All indexes are static (bulk-built and immutable), matching the
// paper's setting; rebuild to change contents. The BK-tree, naturally
// incremental, additionally offers Insert, and the dynamic store
// serializes its updates against in-flight queries internally.
//
// # Concurrency
//
// Queries are safe to run concurrently: Range, KNN and their stats
// variants mutate no index state, and the Counter is atomic. Note the
// Counter is process-wide per index — concurrent queries interleave
// their increments, so a Count delta brackets the *batch*, not any one
// query. For per-query attribution under concurrency use
// RangeWithStats / KNNWithStats, whose SearchStats are computed from
// local traversal state. BatchRange and BatchKNN run a whole query
// batch across a worker pool with deterministic results and counts:
//
//	results, stats, err := mvptree.BatchRange(tree, queries, 0.3,
//		mvptree.BatchOptions{Workers: 8})
//	// results[i] answers queries[i]; stats.Distances is identical
//	// for any worker count. Both take any Searcher — every structure,
//	// the dynamic store, a sharded index.
//
// Construction (with or without Workers) and BK-tree or dynamic-store
// mutation must still be externally serialized against queries on the
// same index, except for the dynamic store's own Insert/Delete, which
// take the store's internal lock.
//
// The internal packages carry the full implementations; this package
// re-exports the public surface. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for the reproduction of every figure in the paper.
package mvptree
