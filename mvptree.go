package mvptree

import (
	"mvptree/internal/balltree"
	"mvptree/internal/bktree"
	"mvptree/internal/build"
	"mvptree/internal/gnat"
	"mvptree/internal/index"
	"mvptree/internal/laesa"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/vptree"
)

// DistanceFunc computes the distance between two items; it must satisfy
// the metric axioms (symmetry, identity, positivity, triangle
// inequality) for correct query results.
type DistanceFunc[T any] = metric.DistanceFunc[T]

// Counter wraps a DistanceFunc and counts invocations — the paper's cost
// measure. Every index owns one; read it via the index's Counter method.
type Counter[T any] = metric.Counter[T]

// NewCounter returns a Counter wrapping fn.
func NewCounter[T any](fn DistanceFunc[T]) *Counter[T] { return metric.NewCounter(fn) }

// Neighbor is one k-nearest-neighbor result, at a finite distance: an
// item whose distance to the query is +Inf or NaN is no neighbor.
type Neighbor[T any] = index.Neighbor[T]

// SearchOptions are the per-query knobs of the unified Search entry
// point every structure implements: Epsilon ((1+ε)-approximation),
// Budget (distance-computation cap) and Bound (an external kNN pruning
// bound). The zero value asks for the exact answer. Each structure runs
// one range traversal and one kNN traversal in every mode, so the
// bound cascade and the quantized pre-filter serve approximate and
// budgeted queries exactly as they serve exact ones.
type SearchOptions = index.SearchOptions

// Query is one unified search request: a range query when Radius is
// set and K == 0, a kNN query when K > 0.
type Query[T any] = index.Query[T]

// Result is a unified search answer: Items for range queries,
// Neighbors for kNN, plus the query's SearchStats. Exact() reports
// whether the answer is certified exact; Exhausted() whether the
// distance budget cut it short.
type Result[T any] = index.Result[T]

// Searcher is implemented by every structure in this library: the
// stats surface plus the unified Search entry point.
type Searcher[T any] = index.Searcher[T]

// BatchSearcher is the shared-traversal batch surface: SearchBatch
// answers a group of queries with one descent per structure, results,
// stats and distance counts byte-identical to per-query Search calls.
// The mvp-tree, the vp-tree and the sharded index implement it; which
// members of a group share the descent is Query.Shareable.
type BatchSearcher[T any] = index.BatchSearcher[T]

// NewRangeQuery and NewKNNQuery build the common request shapes.
func NewRangeQuery[T any](q T, r float64) Query[T] { return index.RangeQuery(q, r) }
func NewKNNQuery[T any](q T, k int) Query[T]       { return index.KNNQuery(q, k) }

// BuildOptions are the construction knobs shared by every structure in
// this library, embedded (as the field Build) in each structure's
// Options: Workers spreads construction's distance computations and
// subtree builds over a bounded goroutine pool — the index built is
// identical for every worker count — and Seed makes random choices
// (vantage points, pivots, split points) deterministic.
type BuildOptions = build.Options

// BuildStats is the uniform construction report returned by every
// structure's New*WithStats constructor: distance computations (the
// paper's build-cost measure, identical for every worker count) and the
// share of them spent choosing vantage points, wall time, node count,
// maximum depth and the worker count used.
type BuildStats = build.Stats

// Index is the query interface shared by every structure in this
// library.
type Index[T any] = index.Index[T]

// CheckAxioms verifies the metric axioms of fn over a sample, with
// tolerance eps on the triangle inequality. It is O(n³) in the sample
// size; run it on a small sample before trusting a hand-written metric.
func CheckAxioms[T any](fn DistanceFunc[T], sample []T, eps float64) error {
	return metric.CheckAxioms(fn, sample, eps)
}

// Tree is a multi-vantage-point tree, the primary index of this library.
type Tree[T any] = mvp.Tree[T]

// Options configure mvp-tree construction: Partitions (m), LeafCapacity
// (k), PathLength (p) and the vantage-point selection switches.
type Options = mvp.Options

// TreeStats describes the shape of a built mvp-tree.
type TreeStats = mvp.Stats

// New builds an mvp-tree over items. By default it measures distances
// through a fresh internal Counter; pass WithCounter, WithObserver or
// WithTracer to share a counter or attach telemetry.
func New[T any](items []T, dist DistanceFunc[T], opts Options, ixOpts ...IndexOption[T]) (*Tree[T], error) {
	t, _, err := NewWithStats(items, dist, opts, ixOpts...)
	return t, err
}

// NewWithStats is New plus the construction report.
func NewWithStats[T any](items []T, dist DistanceFunc[T], opts Options, ixOpts ...IndexOption[T]) (*Tree[T], BuildStats, error) {
	cfg := resolveIndexConfig(dist, ixOpts)
	t, bs, err := mvp.NewWithStats(items, cfg.counter, opts)
	if err = cfg.equip(t, err); err != nil {
		return nil, bs, err
	}
	return t, bs, nil
}

// VPTree is a vantage-point tree [Uhl91, Yia93], the paper's baseline:
// a Tree with one vantage point per node and no retained distances, which
// NewVP builds.
type VPTree[T any] = Tree[T]

// VPOptions configure vp-tree construction: Order (m), LeafCapacity and
// the vantage-point selection strategy.
type VPOptions = vptree.Options

// Vantage-point selection strategies for VPOptions.Selection.
const (
	SelectRandom     = vptree.SelectRandom
	SelectBestSpread = vptree.SelectBestSpread
)

// NewVP builds a vp-tree over items with a fresh internal Counter
// unless WithCounter overrides it.
func NewVP[T any](items []T, dist DistanceFunc[T], opts VPOptions, ixOpts ...IndexOption[T]) (*VPTree[T], error) {
	t, _, err := NewVPWithStats(items, dist, opts, ixOpts...)
	return t, err
}

// NewVPWithStats is NewVP plus the construction report.
func NewVPWithStats[T any](items []T, dist DistanceFunc[T], opts VPOptions, ixOpts ...IndexOption[T]) (*VPTree[T], BuildStats, error) {
	cfg := resolveIndexConfig(dist, ixOpts)
	t, bs, err := vptree.NewWithStats(items, cfg.counter, opts)
	if err = cfg.equip(t, err); err != nil {
		return nil, bs, err
	}
	return t, bs, nil
}

// GNATree is a Geometric Near-neighbor Access Tree [Bri95].
type GNATree[T any] = gnat.Tree[T]

// GNATOptions configure GNAT construction.
type GNATOptions = gnat.Options

// NewGNAT builds a GNAT over items with a fresh internal Counter
// unless WithCounter overrides it.
func NewGNAT[T any](items []T, dist DistanceFunc[T], opts GNATOptions, ixOpts ...IndexOption[T]) (*GNATree[T], error) {
	t, _, err := NewGNATWithStats(items, dist, opts, ixOpts...)
	return t, err
}

// NewGNATWithStats is NewGNAT plus the construction report.
func NewGNATWithStats[T any](items []T, dist DistanceFunc[T], opts GNATOptions, ixOpts ...IndexOption[T]) (*GNATree[T], BuildStats, error) {
	cfg := resolveIndexConfig(dist, ixOpts)
	t, bs, err := gnat.NewWithStats(items, cfg.counter, opts)
	if err = cfg.equip(t, err); err != nil {
		return nil, bs, err
	}
	return t, bs, nil
}

// BKTree is a Burkhard–Keller tree [BK73] for integer-valued metrics
// such as edit or Hamming distance. Unlike the other structures it
// supports incremental Insert.
type BKTree[T any] = bktree.Tree[T]

// BKOptions configure BK-tree bulk construction (only the shared
// BuildOptions apply; the tree's shape has no tunable parameters).
type BKOptions = bktree.Options

// NewBK builds a BK-tree over items with a fresh internal Counter
// unless WithCounter overrides it. The metric must return non-negative
// integers.
func NewBK[T any](items []T, dist DistanceFunc[T], ixOpts ...IndexOption[T]) (*BKTree[T], error) {
	t, _, err := NewBKWithStats(items, dist, BKOptions{}, ixOpts...)
	return t, err
}

// NewBKWithStats is NewBK with explicit options plus the construction
// report.
func NewBKWithStats[T any](items []T, dist DistanceFunc[T], opts BKOptions, ixOpts ...IndexOption[T]) (*BKTree[T], BuildStats, error) {
	cfg := resolveIndexConfig(dist, ixOpts)
	t, bs, err := bktree.NewWithStats(items, cfg.counter, opts)
	if err = cfg.equip(t, err); err != nil {
		return nil, bs, err
	}
	return t, bs, nil
}

// PivotTable is a pre-computed pivot-distance index in the spirit of
// [SW90]/LAESA.
type PivotTable[T any] = laesa.Table[T]

// PivotOptions configure pivot-table construction.
type PivotOptions = laesa.Options

// NewPivotTable builds a pivot table over items with a fresh internal
// Counter unless WithCounter overrides it.
func NewPivotTable[T any](items []T, dist DistanceFunc[T], opts PivotOptions, ixOpts ...IndexOption[T]) (*PivotTable[T], error) {
	t, _, err := NewPivotTableWithStats(items, dist, opts, ixOpts...)
	return t, err
}

// NewPivotTableWithStats is NewPivotTable plus the construction report.
func NewPivotTableWithStats[T any](items []T, dist DistanceFunc[T], opts PivotOptions, ixOpts ...IndexOption[T]) (*PivotTable[T], BuildStats, error) {
	cfg := resolveIndexConfig(dist, ixOpts)
	t, bs, err := laesa.NewWithStats(items, cfg.counter, opts)
	if err = cfg.equip(t, err); err != nil {
		return nil, bs, err
	}
	return t, bs, nil
}

// LinearScan is the brute-force baseline: every query costs exactly
// Len() distance computations.
type LinearScan[T any] = linear.Scan[T]

// NewLinear builds a linear scan over items with a fresh internal
// Counter unless WithCounter overrides it. It is the one constructor
// with no error to return, so it is the one that can drop an option:
// WithCascade is ignored — a scan has no vantage distances to reuse —
// and WithQuantized is honored where the items can be quantized and
// ignored where they cannot.
func NewLinear[T any](items []T, dist DistanceFunc[T], ixOpts ...IndexOption[T]) *LinearScan[T] {
	cfg := resolveIndexConfig(dist, ixOpts)
	cfg.cascade = nil
	s := linear.New(items, cfg.counter)
	_ = cfg.equip(s, nil)
	return s
}

// BallTree is the center/radius multi-way tree of [BK73]'s second
// method — the ancestor of ball trees and M-trees, reviewed by the
// paper in §3.2.
type BallTree[T any] = balltree.Tree[T]

// BallOptions configure ball-tree construction.
type BallOptions = balltree.Options

// NewBall builds a ball tree over items with a fresh internal Counter
// unless WithCounter overrides it.
func NewBall[T any](items []T, dist DistanceFunc[T], opts BallOptions, ixOpts ...IndexOption[T]) (*BallTree[T], error) {
	t, _, err := NewBallWithStats(items, dist, opts, ixOpts...)
	return t, err
}

// NewBallWithStats is NewBall plus the construction report.
func NewBallWithStats[T any](items []T, dist DistanceFunc[T], opts BallOptions, ixOpts ...IndexOption[T]) (*BallTree[T], BuildStats, error) {
	cfg := resolveIndexConfig(dist, ixOpts)
	t, bs, err := balltree.NewWithStats(items, cfg.counter, opts)
	if err = cfg.equip(t, err); err != nil {
		return nil, bs, err
	}
	return t, bs, nil
}
