// Package qexec is a worker-pool batch-query executor over any
// index.Searcher. It exists because the indexes in this repository are
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
// One value travels the whole path: the executor takes index.Query
// values and returns index.Result values, the same currency every
// structure's Search speaks, so a slice may mix range and kNN requests
// with any radii, k's and approximation knobs. Whether members of a
// chunk share a traversal is the index's decision (Query.Shareable,
// consulted inside SearchBatch), not the executor's.
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
	// call: the tree is descended once per group instead of once per
	// query. Results, order, per-query
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
}

// WorkerStats is the per-worker slice of a batch: how many queries the
// worker answered and the sum of their SearchStats.
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
	// Distances is the index's DistanceCount delta across the whole
	// batch. The underlying counter is shared and atomic, so this is
	// exact for the batch as a whole; for per-query attribution use the
	// SearchStats each Result carries.
	Distances int64
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
	// is also a legal answer for an empty result set, so the mask — not
	// a nil check — is the only way to tell "answered empty" from
	// "never run". Always len(Queries); all true when the run
	// completed.
	AnsweredMask []bool
}

// Run answers reqs[i] into results[i] against the shared index, striped
// over the worker pool: worker w answers w, w+W, w+2W, ... in chunks of
// up to max(1, opts.Batch), a chunk longer than one through SearchBatch
// and a lone request through Search. Every results[i] — items,
// neighbors, SearchStats — is what idx.Search(reqs[i]) returns, at every
// worker count and batch size. Cancellation is checked per chunk: a
// chunk never started stays unanswered (mask false), exactly like the
// queries a sequential loop never reached.
func Run[T any](idx index.Searcher[T], reqs []index.Query[T], opts Options) ([]index.Result[T], Stats, error) {
	observer := opts.Observer
	if observer != nil {
		// Refuse the double-counting footgun: the same Observer wired
		// both here and into the index's own query spans.
		if h, ok := idx.(interface{ Observer() *obs.Observer }); ok && h.Observer() == observer {
			return nil, Stats{}, ErrSharedObserver
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(reqs)))
	bi, _ := idx.(index.BatchSearcher[T])
	batch := 1
	if bi != nil {
		batch = max(1, opts.Batch)
	}
	stats := Stats{
		Queries:      len(reqs),
		Workers:      workers,
		PerWorker:    make([]WorkerStats, workers),
		AnsweredMask: make([]bool, len(reqs)),
	}
	before := idx.DistanceCount()
	ctx := opts.Context
	results := make([]index.Result[T], len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &stats.PerWorker[w]
			chunk := make([]index.Query[T], 0, batch)
			slots := make([]int, 0, batch)
			out := make([]index.Result[T], batch)
			flush := func() {
				if len(chunk) == 0 {
					return
				}
				var began time.Time
				if observer != nil {
					began = time.Now()
				}
				if len(chunk) > 1 {
					bi.SearchBatch(chunk, out[:len(chunk)])
				} else {
					out[0] = idx.Search(chunk[0])
				}
				if observer != nil {
					per := time.Since(began) / time.Duration(len(chunk))
					for ci, req := range chunk {
						kind := obs.KindRange
						if req.K > 0 {
							kind = obs.KindKNN
						}
						observer.ObserveShard(w, kind, per, out[ci].Stats)
					}
				}
				for ci, i := range slots {
					results[i] = out[ci]
					stats.AnsweredMask[i] = true
					ws.Queries++
					ws.Search.Add(out[ci].Stats)
				}
				chunk, slots = chunk[:0], slots[:0]
			}
			for i := w; i < len(reqs); i += workers {
				if ctx != nil && ctx.Err() != nil {
					return
				}
				chunk, slots = append(chunk, reqs[i]), append(slots, i)
				if len(chunk) == batch {
					flush()
				}
			}
			if ctx == nil || ctx.Err() == nil {
				flush()
			}
		}(w)
	}
	wg.Wait()
	stats.Wall = time.Since(start)
	stats.Distances = idx.DistanceCount() - before
	for _, ws := range stats.PerWorker {
		stats.Search.Add(ws.Search)
		stats.Answered += ws.Queries
	}
	if ctx != nil && ctx.Err() != nil && stats.Answered < stats.Queries {
		return results, stats, ctx.Err()
	}
	return results, stats, nil
}

// requests spells one exact request per query point. A caller that
// wants ε or a distance budget builds index.Query values and calls Run.
func requests[T any](queries []T, r float64, k int) []index.Query[T] {
	reqs := make([]index.Query[T], len(queries))
	for i, q := range queries {
		reqs[i] = index.Query[T]{Point: q, Radius: r, K: k}
	}
	return reqs
}

// RunRange answers a range query at radius r for every query point,
// returning results[i] = idx.Range(queries[i], r) plus batch stats.
func RunRange[T any](idx index.Searcher[T], queries []T, r float64, opts Options) ([][]T, Stats, error) {
	res, stats, err := Run(idx, requests(queries, r, 0), opts)
	out := make([][]T, len(res))
	for i := range res {
		out[i] = res[i].Items
	}
	return out, stats, err
}

// RunKNN answers a k-nearest-neighbor query for every query point,
// returning results[i] = idx.KNN(queries[i], k) plus batch stats.
func RunKNN[T any](idx index.Searcher[T], queries []T, k int, opts Options) ([][]index.Neighbor[T], Stats, error) {
	if k <= 0 {
		// index.Query spells K <= 0 as a range request; the empty kNN
		// answers are nobody's traversal, so they are made here.
		n := len(queries)
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = true
		}
		return make([][]index.Neighbor[T], n), Stats{Queries: n, Workers: 1,
			PerWorker: []WorkerStats{{Queries: n}}, Answered: n, AnsweredMask: mask}, nil
	}
	res, stats, err := Run(idx, requests(queries, 0, k), opts)
	out := make([][]index.Neighbor[T], len(res))
	for i := range res {
		out[i] = res[i].Neighbors
	}
	return out, stats, err
}
