// Package laesa implements a pivot-table index in the spirit of Shasha &
// Wang's pre-computed distance technique [SW90], which the paper reviews
// in §3.2. The full [SW90] table stores all O(n²) pairwise distances;
// that is exactly what the paper calls "overwhelming for larger
// domains", so — like the LAESA family that followed — this
// implementation stores the distances from every item to a fixed set of
// p pivots, an O(n·p) table.
//
// A query computes its distance to each pivot, derives for every item
// the lower bound max_j |d(q, pivot_j) − table[j][item]| and computes a
// real distance only for items whose bound does not already exclude
// them. This makes the filtering power of pre-computed distances — the
// same mechanism the mvp-tree moves into its leaves — measurable in
// isolation.
//
// The greedy max-min selection is internal/cascade's, which the mvp-tree
// arms its own pivot columns with (EnableCascade); the table, the
// query's pivot distances and the bound loop are this package's.
//
// Queries (Range, KNN and their variants) read only immutable state and
// are safe to run concurrently against one instance; the shared
// distance counter is atomic.
package laesa

import (
	"errors"
	"math"

	"mvptree/internal/build"
	"mvptree/internal/cascade"
	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
)

// SearchStats is the shared per-query filtering breakdown
// (index.SearchStats), aliased here so laesa call sites match the other
// index packages. The table is flat, so NodesVisited/LeavesVisited/
// ShellsPruned stay zero; VantagePoints counts the per-query pivot
// distances, Candidates is the full item count, and FilteredByD counts
// items the pivot lower bound excluded without a real computation.
type SearchStats = index.SearchStats

// Build is the shared construction options (Workers, Seed) every index
// package embeds; see build.Options.
type Build = build.Options

// Options configure construction of the pivot table.
type Options struct {
	// Build holds the shared construction knobs: Workers spreads each
	// pivot row's distance computations over a bounded pool (the table
	// built is identical for every worker count), and Seed seeds pivot
	// selection (maximum-minimum-distance greedy selection from a
	// random start).
	Build
	// Pivots is the number of pivot items, the p of the table.
	// Default 16 (capped at the number of items).
	Pivots int
}

// Table is a pivot-table index over a fixed item set. The embedded
// obs.Hooks let callers attach an Observer and/or Tracer; with neither
// attached the query paths pay only nil checks.
type Table[T any] struct {
	obs.Hooks
	items      []T
	pivots     []T
	rows       [][]float64 // rows[j][i] = d(pivots[j], items[i])
	dist       *metric.Counter[T]
	buildStats build.Stats
}

var _ index.StatsIndex[int] = (*Table[int])(nil)

// New builds the pivot table over items using the counted metric dist.
func New[T any](items []T, dist *metric.Counter[T], opts Options) (*Table[T], error) {
	t, _, err := NewWithStats(items, dist, opts)
	return t, err
}

// NewWithStats is New plus the shared construction report: distance
// computations, wall time, node count (here: pivots) and depth
// (build.Stats).
func NewWithStats[T any](items []T, dist *metric.Counter[T], opts Options) (*Table[T], build.Stats, error) {
	if opts.Pivots == 0 {
		opts.Pivots = 16
	}
	if err := opts.Build.Validate("laesa"); err != nil {
		return nil, build.Stats{}, err
	}
	if opts.Pivots < 1 {
		return nil, build.Stats{}, errors.New("laesa: Pivots must be at least 1")
	}
	p := min(opts.Pivots, len(items))
	t := &Table[T]{
		items: make([]T, len(items)),
		dist:  dist,
	}
	copy(t.items, items)
	if len(items) == 0 {
		return t, build.Stats{}, nil
	}
	b := build.Start(dist, opts.Build)

	// Greedy max-min pivot selection (cascade.GreedySelect): start
	// random, then repeatedly take the item farthest from all chosen
	// pivots. Each pivot costs one batched distance pass over all
	// items, which doubles as the pivot's table row.
	start := build.NewRNG(opts.Seed, 0x6c61657361).Rand().IntN(len(items))
	t.pivots, t.rows = cascade.GreedySelect(b, t.items, p, start)
	t.buildStats = b.Finish()
	return t, t.buildStats, nil
}

// Len reports the number of indexed items.
func (t *Table[T]) Len() int { return len(t.items) }

// Counter returns the counted metric the table measures distances with.
func (t *Table[T]) Counter() *metric.Counter[T] { return t.dist }

// DistanceCount reports the cumulative distance computations on the
// table's counter (build + queries), the paper's cost metric.
func (t *Table[T]) DistanceCount() int64 { return t.dist.Count() }

// Pivots reports the number of pivots actually used.
func (t *Table[T]) Pivots() int { return len(t.pivots) }

// BuildCost reports the number of distance computations made during
// construction (pivots × n).
func (t *Table[T]) BuildCost() int64 { return t.buildStats.Distances }

// BuildStats reports the full construction report.
func (t *Table[T]) BuildStats() build.Stats { return t.buildStats }

// queryPivots returns the query's exact distances to the pivots — all of
// them, or as many as the budget allows: fewer yield looser but still
// valid lower bounds.
func (t *Table[T]) queryPivots(q T, a *index.Approx) []float64 {
	qd := make([]float64, 0, len(t.pivots))
	for _, pv := range t.pivots {
		if !a.Pay(1) {
			break
		}
		qd = append(qd, t.dist.Distance(q, pv))
	}
	return qd
}

// lowerBound returns max over the pivots measured into qd of
// |d(q, pivot) − d(pivot, item i)| — by the triangle inequality a lower
// bound on the distance from the query to item i, 0 with none measured.
func (t *Table[T]) lowerBound(qd []float64, i int) float64 {
	var lb float64
	for j, d := range qd {
		if b := math.Abs(d - t.rows[j][i]); b > lb {
			lb = b
		}
	}
	return lb
}

var _ index.Searcher[int] = (*Table[int])(nil)

// Search is the table's one query implementation (index.Searcher): a
// single range scan and a single bound-ordered kNN scan, each threaded
// with the request's index.Approx. Zero-valued SearchOptions are the
// exact query; Epsilon and Budget only change the number in
// the filtering rule — the lower-bound filter compares against the
// shrunken threshold, acceptance against the full one, Pay precedes
// every distance computation (pivot distances included). Workers and
// Bound are not supported by this structure and are ignored.
func (t *Table[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		return t.knn(req.Point, req.K, req.Opts)
	}
	return t.rangeSearch(req.Point, req.Radius, req.Opts)
}

// Range returns every indexed item within distance r of q. It is a
// wrapper over Search, so there is exactly one scan implementation.
func (t *Table[T]) Range(q T, r float64) []T {
	return t.Search(index.RangeQuery(q, r)).Items
}

// RangeWithStats is Range plus the per-query breakdown.
func (t *Table[T]) RangeWithStats(q T, r float64) ([]T, SearchStats) {
	res := t.Search(index.RangeQuery(q, r))
	return res.Items, res.Stats
}

// rangeSearch filters against rp = r/(1+ε) (== r when exact) while
// acceptance keeps the full r: every reported item is within r and
// every item within rp is reported.
func (t *Table[T]) rangeSearch(q T, r float64, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindRange)
	var s SearchStats
	if r < 0 || len(t.items) == 0 {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	a := index.StartApprox(o)
	rp := a.Shrink(r)
	qd := t.queryPivots(q, &a)
	s.VantagePoints = len(qd)
	var out []T
	for i, it := range t.items {
		if a.Stop() {
			break
		}
		s.Candidates++
		if t.lowerBound(qd, i) > rp {
			s.FilteredByD++
			continue
		}
		if !a.Pay(1) {
			s.Candidates-- // not considered: the budget stopped the scan first
			break
		}
		s.Computed++
		// Survivors only need membership, so the kernel may abandon at
		// r. Pivot distances (queryPivots) stay exact: the lower bound
		// uses them two-sidedly.
		if t.dist.DistanceUpTo(q, it, r) <= r {
			out = append(out, it)
		}
	}
	a.Finish(&s)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Items: out, Stats: s}
}

// KNN returns the k nearest indexed items: candidates are visited in
// ascending lower-bound order and the scan stops as soon as the next
// lower bound cannot beat the current k-th distance. It is KNNWithStats
// without the stats (single scan implementation).
func (t *Table[T]) KNN(q T, k int) []index.Neighbor[T] {
	return t.knn(q, k, index.SearchOptions{}).Neighbors
}

// KNNWithStats is KNN plus the per-query breakdown. Items never popped
// (or popped after the bound closed) count as FilteredByD: the pivot
// lower bound excluded them without a real distance computation.
// (Not through Search, which reads k <= 0 as a range request.)
func (t *Table[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], SearchStats) {
	res := t.knn(q, k, index.SearchOptions{})
	return res.Neighbors, res.Stats
}

// knn visits candidates in ascending lower-bound order and stops once
// the next bound reaches τ/(1+ε) or the budget runs out.
func (t *Table[T]) knn(q T, k int, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindKNN)
	var s SearchStats
	if k <= 0 || len(t.items) == 0 {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	a := index.StartApprox(o)
	qd := t.queryPivots(q, &a)
	s.VantagePoints = len(qd)
	var queue heapx.NodeQueue[int]
	for i := range t.items {
		queue.PushNode(i, t.lowerBound(qd, i))
	}
	best := heapx.NewKBest[T](k, t.Len())
	for {
		i, lb, ok := queue.PopNode()
		tau := best.Threshold()
		if !ok || lb >= a.Shrink(tau) || !a.Pay(1) {
			break
		}
		s.Computed++
		// Push ignores anything ≥ the current k-th best, so the kernel
		// may abandon at τ (exact while the heap is still filling).
		best.Push(t.items[i], t.dist.DistanceUpTo(q, t.items[i], tau))
	}
	s.Candidates = len(t.items)
	s.FilteredByD = s.Candidates - s.Computed
	out := best.Sorted()
	a.Finish(&s)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Neighbors: out, Stats: s}
}
