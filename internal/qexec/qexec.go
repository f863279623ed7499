// Package qexec is a worker-pool batch-query executor over any
// index.Index. It exists because the indexes in this repository are
// read-mostly after a static build and — now that the distance Counter
// is atomic and every query path has been audited free of shared
// mutable state — a single shared index can legally serve many queries
// at once. qexec turns that property into throughput: a batch of
// queries is striped over a configurable number of worker goroutines,
// each answering its share against the one shared index.
//
// Three guarantees make the executor fit the paper's methodology:
//
//   - Deterministic results: results[i] always answers queries[i], and
//     each individual query is answered by the exact same traversal the
//     sequential path runs, so result sets (and their order within one
//     query) do not depend on the worker count.
//
//   - Deterministic cost: the number of distance computations of a
//     query does not depend on what other queries run beside it, so the
//     batch total — measured as an atomic Counter delta — is identical
//     for every worker count. Parallelism changes wall-clock time only,
//     never the paper's cost metric.
//
//   - Deterministic attribution: queries are striped (worker w answers
//     queries w, w+W, w+2W, ...), so per-worker SearchStats aggregates
//     are reproducible run to run, not an artifact of scheduling.
//
// Indexes are probed for the exported index.StatsIndex surface (every
// structure in this repository implements it); when present, the
// executor uses the WithStats query variants and reports per-query
// filtering breakdowns plus the exact distance-count delta.
package qexec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"mvptree/internal/index"
	"mvptree/internal/obs"
)

// ErrSharedObserver is returned when Options.Observer is the same
// *obs.Observer already attached to the index's own hooks: each query
// would then be recorded twice (once by the index's query span, once
// by the executor), silently doubling every snapshot total. Attach the
// observer in one place or the other.
var ErrSharedObserver = errors.New("qexec: Observer is already attached to the index; attach it to the executor or the index, not both")

// Options configure a batch run.
type Options struct {
	// Workers is the number of goroutines answering queries. Values
	// <= 0 mean runtime.GOMAXPROCS(0). A worker count of 1 reproduces
	// the plain sequential loop.
	Workers int
	// Batch is the shared-traversal micro-batch size. When > 1 and the
	// index implements index.BatchSearcher, each worker answers its
	// stripe in groups of up to Batch queries through one SearchBatch
	// call: the tree is descended once per group with blocked distance
	// kernels instead of once per query. Results, order, per-query
	// SearchStats and the batch's Distances delta are byte-identical to
	// the unbatched run (the BatchSearcher contract); batching changes
	// memory traffic and wall-clock time only. Two behavioral edges
	// move from one query to one group: Context cancellation latency,
	// and the Observer's per-query latency samples (a group's wall time
	// is amortized equally over its members; every non-latency snapshot
	// field stays exact). Ignored when the index lacks the surface.
	Batch int
	// Context, when non-nil, is checked between queries: once it is
	// cancelled, workers stop picking up new queries and the run
	// returns ctx.Err() with the results slice only partially filled.
	// In-flight queries finish (traversals are not interruptible
	// mid-tree); cancellation latency is one query. With Workers > 1
	// the filled slots are generally non-contiguous (striping) —
	// consult Stats.AnsweredMask to tell real answers from never-run
	// slots.
	Context context.Context
	// Observer, when non-nil, receives one observation per query:
	// worker w records into shard w (obs.Observer.ObserveShard), so
	// recording is contention-free and the merged snapshot's totals are
	// exact for every worker count. Latency histograms reflect real
	// timings and therefore vary run to run; every other snapshot field
	// is deterministic. It must not also be attached to the index
	// itself via its obs.Hooks — that would record every query twice,
	// so the run is refused with ErrSharedObserver.
	Observer *obs.Observer
	// Search carries the approximation knobs (index.SearchOptions:
	// Epsilon, Budget, Patience) applied to every query in the batch.
	// The zero value is the exact query. Every query of an index that
	// implements index.Searcher goes through its Search (or SearchBatch)
	// entry point with these knobs; the per-query Budget is each
	// query's own (not a batch total). Indexes without the Searcher
	// surface ignore the knobs and answer exactly. Workers/Bound inside
	// this struct are ignored: the executor's parallelism is across
	// queries.
	Search index.SearchOptions
}

// WorkerStats is the per-worker slice of a batch: how many queries the
// worker answered and, when the index exposes the stats query variants
// (index.StatsIndex, as every structure in this repository does), the
// sum of its queries' SearchStats.
type WorkerStats struct {
	Queries int
	Search  index.SearchStats
}

// Stats summarize one batch run.
type Stats struct {
	// Queries is the batch size, Workers the worker count actually
	// used (capped at the batch size).
	Queries int
	Workers int
	// Wall is the wall-clock time of the whole batch, measured around
	// the worker pool. Unlike Distances it depends on the worker count
	// and machine load.
	Wall time.Duration
	// Distances is the DistanceCount delta across the whole batch when
	// the index is an index.StatsIndex, 0 otherwise. The underlying
	// counter is shared and atomic, so this is exact for the batch as a
	// whole; for per-query attribution use the SearchStats aggregates.
	Distances int64
	// HasSearch reports whether the index exposed the stats query
	// variants; Search and the PerWorker Search fields are only
	// meaningful when it is true.
	HasSearch bool
	// Search is the SearchStats sum over the whole batch.
	Search index.SearchStats
	// PerWorker is indexed by worker; worker w answered queries
	// w, w+Workers, w+2·Workers, ...
	PerWorker []WorkerStats
	// Answered counts queries actually run: equal to Queries unless
	// the Context was cancelled mid-batch.
	Answered int
	// AnsweredMask[i] reports whether results[i] holds a real answer.
	// It matters after a cancelled run with Workers > 1: workers stripe
	// the batch, so the filled slots are generally NOT a contiguous
	// prefix — worker w stops at its own next pickup, leaving holes
	// wherever slower workers had not reached. A zero-value result slot
	// (nil slice) is also a legal answer for an empty result set, so
	// the mask — not a nil check — is the only way to tell "answered
	// empty" from "never run". Always len(Queries); all true when the
	// run completed.
	AnsweredMask []bool
	// ExhaustedMask[i] reports whether query i's answer was cut short
	// by its distance budget (Result.Exhausted). Non-nil only when the
	// batch ran with approximate Search options over an index
	// implementing index.Searcher; nil for exact batches.
	ExhaustedMask []bool
}

// approxOpts is the per-query option set derived from the batch
// options: only the approximation knobs pass through.
func approxOpts(opts Options) index.SearchOptions {
	return index.SearchOptions{
		Epsilon:  opts.Search.Epsilon,
		Budget:   opts.Search.Budget,
		Patience: opts.Search.Patience,
	}
}

// RunRange answers a range query at radius r for every query point,
// returning results[i] = idx.Range(queries[i], r) plus batch stats.
func RunRange[T any](idx index.Index[T], queries []T, r float64, opts Options) ([][]T, Stats, error) {
	caps := index.CapabilitiesOf(idx)
	o := approxOpts(opts)
	exact := func(q T) ([]T, index.SearchStats) { return idx.Range(q, r), index.SearchStats{} }
	if si := caps.Stats; si != nil {
		exact = func(q T) ([]T, index.SearchStats) { return si.RangeWithStats(q, r) }
	}
	return route(caps, idx, queries, opts, obs.KindRange, exact,
		func(q T) index.Query[T] { return index.Query[T]{Point: q, Radius: r, Opts: o} },
		func(res *index.Result[T]) []T { return res.Items })
}

// RunKNN answers a k-nearest-neighbor query for every query point,
// returning results[i] = idx.KNN(queries[i], k) plus batch stats.
func RunKNN[T any](idx index.Index[T], queries []T, k int, opts Options) ([][]index.Neighbor[T], Stats, error) {
	caps := index.CapabilitiesOf(idx)
	if k <= 0 {
		// index.Query reads K <= 0 as a range request; an empty kNN
		// answer is only spelled by the per-mode methods.
		caps.Search, caps.Batch = nil, nil
	}
	o := approxOpts(opts)
	exact := func(q T) ([]index.Neighbor[T], index.SearchStats) { return idx.KNN(q, k), index.SearchStats{} }
	if si := caps.Stats; si != nil {
		exact = func(q T) ([]index.Neighbor[T], index.SearchStats) { return si.KNNWithStats(q, k) }
	}
	return route(caps, idx, queries, opts, obs.KindKNN, exact,
		func(q T) index.Query[T] { return index.Query[T]{Point: q, K: k, Opts: o} },
		func(res *index.Result[T]) []index.Neighbor[T] { return res.Neighbors })
}

// route picks how each query is answered from the index's capability
// report: SearchBatch per chunk when Batch > 1, else Search; fallback
// is what an index without the Searcher surface gets — the StatsIndex
// method, or the plain Index method when it has no stats surface
// either. mk builds the request for one query point, extract pulls the
// endpoint's result kind out of the unified Result.
func route[T any, R any](caps index.Capabilities[T], idx index.Index[T], queries []T, opts Options,
	kind obs.Kind, fallback func(q T) (R, index.SearchStats),
	mk func(q T) index.Query[T], extract func(res *index.Result[T]) R) ([]R, Stats, error) {

	one := fallback
	if sr := caps.Search; sr != nil {
		one = func(q T) (R, index.SearchStats) {
			res := sr.Search(mk(q))
			return extract(&res), res.Stats
		}
	}
	var many batchFn[T, R]
	if bi := caps.Batch; bi != nil && opts.Batch > 1 {
		many = func(qs []T) ([]R, []index.SearchStats) {
			return runBatch(bi, qs, mk, extract)
		}
	}
	return run(caps.Stats, idx, queries, opts, kind, one, many)
}

// batchFn answers one contiguous query group with a shared traversal,
// returning the per-query results and SearchStats positionally.
type batchFn[T any, R any] func(qs []T) ([]R, []index.SearchStats)

// runBatch adapts one index.BatchSearcher call to the executor's
// (results, stats) shape: mk builds the request for one query point,
// extract pulls the endpoint's result kind out of the unified Result.
func runBatch[T any, R any](bi index.BatchSearcher[T], qs []T,
	mk func(q T) index.Query[T], extract func(res *index.Result[T]) R) ([]R, []index.SearchStats) {
	reqs := make([]index.Query[T], len(qs))
	for i, q := range qs {
		reqs[i] = mk(q)
	}
	res := make([]index.Result[T], len(qs))
	bi.SearchBatch(reqs, res)
	out := make([]R, len(qs))
	ss := make([]index.SearchStats, len(qs))
	for i := range res {
		out[i] = extract(&res[i])
		ss[i] = res[i].Stats
	}
	return out, ss
}

// run stripes the batch over the worker pool. one answers a single
// query; si is non-nil exactly when the index exposes index.StatsIndex,
// in which case the per-query SearchStats are real. many, when non-nil,
// answers a whole group with one shared traversal — each worker then
// walks its stripe in chunks of opts.Batch, with identical per-query
// answers and attribution.
func run[T any, R any](si index.StatsIndex[T], idx index.Index[T], queries []T, opts Options,
	kind obs.Kind, one func(q T) (R, index.SearchStats),
	many batchFn[T, R]) ([]R, Stats, error) {

	if opts.Observer != nil {
		// Refuse the double-counting footgun: the same Observer wired
		// both here and into the index's own query spans.
		if h, ok := idx.(interface{ Observer() *obs.Observer }); ok && h.Observer() == opts.Observer {
			return nil, Stats{}, ErrSharedObserver
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers < 1 {
		workers = 1
	}
	stats := Stats{
		Queries:      len(queries),
		Workers:      workers,
		HasSearch:    si != nil,
		PerWorker:    make([]WorkerStats, workers),
		AnsweredMask: make([]bool, len(queries)),
	}
	if si != nil && opts.Search.Approximate() {
		stats.ExhaustedMask = make([]bool, len(queries))
	}
	var before int64
	if si != nil {
		before = si.DistanceCount()
	}
	observer := opts.Observer
	ctx := opts.Context
	results := make([]R, len(queries))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &stats.PerWorker[w]
			if many != nil {
				// Chunked stripe: same query-to-worker assignment, same
				// per-query answers and stats, one shared traversal per
				// chunk. Cancellation is checked per chunk; a pending,
				// never-executed chunk stays unanswered (mask false),
				// exactly like queries the sequential loop never reached.
				chunk := make([]T, 0, opts.Batch)
				idxs := make([]int, 0, opts.Batch)
				flush := func() {
					if len(chunk) == 0 {
						return
					}
					var cStart time.Time
					if observer != nil {
						cStart = time.Now()
					}
					res, ss := many(chunk)
					if observer != nil {
						per := time.Since(cStart) / time.Duration(len(chunk))
						for _, s := range ss {
							observer.ObserveShard(w, kind, per, s)
						}
					}
					for ci, i := range idxs {
						results[i] = res[ci]
						stats.AnsweredMask[i] = true
						if stats.ExhaustedMask != nil && ss[ci].BudgetExhausted > 0 {
							stats.ExhaustedMask[i] = true
						}
						ws.Queries++
						ws.Search.Add(ss[ci])
					}
					chunk = chunk[:0]
					idxs = idxs[:0]
				}
				for i := w; i < len(queries); i += workers {
					if ctx != nil && ctx.Err() != nil {
						return
					}
					chunk = append(chunk, queries[i])
					idxs = append(idxs, i)
					if len(chunk) == opts.Batch {
						flush()
					}
				}
				if ctx == nil || ctx.Err() == nil {
					flush()
				}
				return
			}
			for i := w; i < len(queries); i += workers {
				if ctx != nil && ctx.Err() != nil {
					return
				}
				var qStart time.Time
				if observer != nil {
					qStart = time.Now()
				}
				res, s := one(queries[i])
				if observer != nil {
					observer.ObserveShard(w, kind, time.Since(qStart), s)
				}
				results[i] = res
				stats.AnsweredMask[i] = true
				if stats.ExhaustedMask != nil && s.BudgetExhausted > 0 {
					stats.ExhaustedMask[i] = true
				}
				ws.Queries++
				if si != nil {
					ws.Search.Add(s)
				}
			}
		}(w)
	}
	wg.Wait()
	stats.Wall = time.Since(start)
	if si != nil {
		stats.Distances = si.DistanceCount() - before
	}
	for _, ws := range stats.PerWorker {
		stats.Search.Add(ws.Search)
		stats.Answered += ws.Queries
	}
	if ctx != nil && ctx.Err() != nil && stats.Answered < stats.Queries {
		return results, stats, ctx.Err()
	}
	return results, stats, nil
}
