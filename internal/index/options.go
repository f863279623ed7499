package index

// This file defines the unified query-options API: one request type
// (Query + SearchOptions) consulted by every structure's single Search
// entry point. Search and SearchBatch are the only query surface one
// layer calls on another; externally bounded kNN is reachable only
// through Opts.Bound. The StatsIndex methods (Range/KNN and their
// WithStats forms) remain for direct callers as wrappers over the same
// traversal and answer exactly what a zero-options Search does.
//
// The options cover two approximation axes on top of the exact knobs:
//
//   - Epsilon: (1+ε)-approximate search. Range queries prune subtrees
//     and filter candidates against the shrunken radius r/(1+ε) while
//     still accepting any computed item within r, so every reported
//     item is a true answer and every item within r/(1+ε) is
//     guaranteed reported. kNN queries prune against τ/(1+ε): each
//     returned neighbor is within (1+ε) of the distance of the true
//     i-th nearest neighbor.
//   - Budget: a hard cap on distance computations for the query. The
//     traversal debits the budget before every computation and stops
//     (returning the best partial answer) when it cannot pay;
//     SearchStats.BudgetExhausted records whether that happened.
//
// Each structure has one range traversal and one kNN traversal, and
// the knobs only change the number in its pruning rule (see Approx): a
// query with both at their zero values is exact, and everything
// that accelerates an exact query — the bound cascade, the quantized
// pre-filter, Bound, pooled scratch — serves an approximate one too.
type SearchOptions struct {
	// Epsilon is the (1+ε) approximation slack. 0 means exact.
	// Negative values are treated as 0.
	Epsilon float64

	// Budget caps the query's distance computations. 0 (or negative)
	// means unlimited.
	Budget int64

	// Bound is an optional external kNN pruning bound (cross-shard τ
	// sharing). Honored by mvp and vptree on every kNN query, exact or
	// approximate; every other structure ignores it.
	Bound KNNBound
}

// Approximate reports whether any approximation knob is active, i.e.
// whether the answer may differ from the exact one.
func (o SearchOptions) Approximate() bool {
	return o.Epsilon > 0 || o.Budget > 0
}

// Query is one search request against a structure's unified Search
// entry point: a k-nearest-neighbor query when K > 0, otherwise a
// range query with the given Radius (a radius of 0 is a valid point
// query).
type Query[T any] struct {
	// Point is the query object.
	Point T
	// Radius is the range-query radius; consulted only when K == 0.
	Radius float64
	// K requests a k-nearest-neighbor query when > 0.
	K int
	// Opts carries the exact/approximate/budget knobs.
	Opts SearchOptions
}

// Shareable reports whether the request may ride a group's shared
// traversal in SearchBatch: an exact range query with no external
// Bound. Everything else — kNN (best-first pops diverge, and a sharded
// walk carries a per-query τ), ε or a budget — is answered by
// per-query Search inside the same SearchBatch call. It is the one
// place that question is decided; executors above hand SearchBatch a
// mixed group as it is.
func (q Query[T]) Shareable() bool {
	return q.K <= 0 && !q.Opts.Approximate() && q.Opts.Bound == nil
}

// RangeQuery builds an exact range request; chain option tweaks on the
// returned value's Opts field.
func RangeQuery[T any](q T, r float64) Query[T] {
	return Query[T]{Point: q, Radius: r}
}

// KNNQuery builds an exact k-nearest-neighbor request.
func KNNQuery[T any](q T, k int) Query[T] {
	return Query[T]{Point: q, K: k}
}

// Result is the answer to one Query: Items for range queries,
// Neighbors for kNN queries, and always the per-query SearchStats.
type Result[T any] struct {
	// Items holds range-query results (K == 0), in the same order the
	// structure's Range method would return them.
	Items []T
	// Neighbors holds kNN results (K > 0), ascending by distance.
	Neighbors []Neighbor[T]
	// Stats is the query's filtering breakdown; Stats.Distances()
	// equals the structure's Counter delta for the query.
	Stats SearchStats
}

// Exhausted reports whether the distance budget cut the traversal
// short, i.e. whether the result is a partial answer.
func (r Result[T]) Exhausted() bool { return r.Stats.BudgetExhausted > 0 }

// Exact reports whether the answer is certified exact — no ε slack was
// requested and the budget did not cut the traversal short.
func (r Result[T]) Exact() bool { return r.Stats.Approximated == 0 }

// Searcher is the unified query entry point every structure in this
// repository implements: one method consulted with the full request,
// in place of per-capability method variants.
type Searcher[T any] interface {
	StatsIndex[T]

	// Search answers req. RangeWithStats / KNNWithStats are wrappers
	// over the same traversal, so with zero-valued SearchOptions the
	// three agree in results, order, and distance counts.
	Search(req Query[T]) Result[T]
}

// BatchSearcher is implemented by structures that can answer a group of
// queries with one shared traversal: the tree is descended once per
// group, each node's vantage points are measured against every
// still-active query while they are in cache, and each leaf arena is
// read while it is in cache for the whole group.
type BatchSearcher[T any] interface {
	Searcher[T]

	// SearchBatch answers reqs[i] into results[i]. It panics unless
	// len(results) == len(reqs). Every results[i] — items, neighbor
	// order, SearchStats, and the structure's Counter delta — is
	// byte-identical to what Search(reqs[i]) produces, at every batch
	// size; batching changes memory traffic, never answers. Queries that
	// are not Shareable are answered by per-query Search calls inside
	// the same invocation.
	SearchBatch(reqs []Query[T], results []Result[T])
}

// KNNBound is an external pruning bound threaded through a kNN search
// (SearchOptions.Bound): the τ a sharded index carries from shard to
// shard. The searcher consults min(localTau, Tau()) for every pruning
// and early-abandonment decision and offers its own tightening
// k-th-best distance back through Publish, so searches over later
// shards prune against the best bound found so far.
//
// Correctness requirement on implementations: Tau must never return a
// value smaller than the final k-th-best distance of the *global*
// query (across all shards). Under that invariant a searcher may
// discard any candidate certified to exceed Tau() without losing a
// global result; ties exactly at the global k-th distance may be
// dropped, which the Index.KNN contract already permits.
type KNNBound interface {
	// Tau returns the current external bound (+Inf when none is known
	// yet). It must be monotonically non-increasing over the lifetime
	// of one query.
	Tau() float64
	// Publish offers a searcher's current local k-th-best distance.
	// Implementations keep the minimum of everything published.
	Publish(tau float64)
}
