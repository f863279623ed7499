package mvptree

import (
	"mvptree/internal/mvp"
	"mvptree/internal/qexec"
)

// SearchStats is the per-query filtering breakdown reported by the
// stats query variants (Tree.RangeWithStats, Tree.KNNWithStats) and
// aggregated by the batch executor. Because the distance Counter is a
// process-wide atomic shared by every goroutine querying an index,
// SearchStats — not Counter deltas — is the way to attribute distance
// computations to an individual query while others are in flight.
type SearchStats = mvp.SearchStats

// BatchOptions configure the parallel batch-query executor: the worker
// count, an optional Observer that receives one recording per query
// (each worker writes its own shard, so snapshot totals are exact for
// every worker count), and Batch — the shared-traversal micro-batch
// size. When the index implements BatchSearcher and Batch > 1, each
// worker answers its stripe in groups of Batch through one SearchBatch
// call per group; results, stats and distance counts stay
// byte-identical to the unbatched run. Search carries the approximation
// knobs BatchRange and BatchKNN put on every query.
type BatchOptions = qexec.Options

// BatchStats summarize a batch run: total Counter delta, batch wall
// time, per-worker query counts and aggregated SearchStats.
type BatchStats = qexec.Stats

// BatchWorkerStats is the per-worker slice of a BatchStats.
type BatchWorkerStats = qexec.WorkerStats

// ErrSharedObserver is returned by BatchRange/BatchKNN when
// opts.Observer is the same Observer already attached to the index's
// own hooks — that wiring would record every query twice (once by the
// index, once by the executor), silently doubling snapshot totals.
// Attach the Observer to one side or the other, not both.
var ErrSharedObserver = qexec.ErrSharedObserver

// BatchRange answers one range query per element of queries against a
// shared index, striped over opts.Workers goroutines. results[i] is
// exactly idx.Range(queries[i], r): the answers — and the number of
// distance computations the batch performs — are identical for every
// worker count; parallelism changes wall-clock time only. Every
// structure in this library (and the dynamic store) is a Searcher and
// safe to share this way (their query paths touch no mutable state
// beyond the atomic Counter).
//
// The error is non-nil in two cases: opts.Context was cancelled before
// the batch finished (the results are partially filled and the error is
// the context's), or opts.Observer is also attached to the index's own
// hooks (qexec.ErrSharedObserver — that wiring would record every query
// twice).
func BatchRange[T any](idx Searcher[T], queries []T, r float64, opts BatchOptions) ([][]T, BatchStats, error) {
	return qexec.RunRange(idx, queries, r, opts)
}

// BatchKNN answers one k-nearest-neighbor query per element of queries
// against a shared index, striped over opts.Workers goroutines.
// results[i] is exactly idx.KNN(queries[i], k). Errors as in
// BatchRange.
func BatchKNN[T any](idx Searcher[T], queries []T, k int, opts BatchOptions) ([][]Neighbor[T], BatchStats, error) {
	return qexec.RunKNN(idx, queries, k, opts)
}
