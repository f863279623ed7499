// Package vptree implements the vantage-point tree of Uhlmann [Uhl91]
// and Yiannilos [Yia93], the structure the paper (§3.3) uses as its main
// comparison baseline for the mvp-tree.
//
// A vp-tree node holds one vantage point chosen from the data. The
// distances from the vantage point to every other point below the node
// are computed at construction time, the points are ordered by that
// distance and split into m groups of equal cardinality ("spherical
// cuts"), and each group is indexed by a recursively built child. Range
// search prunes whole subtrees with the triangle inequality: a child
// whose spherical shell does not intersect the query ball cannot contain
// an answer.
//
// Queries (Range, KNN and their variants) read only immutable state and
// are safe to run concurrently against one instance; the shared
// distance counter is atomic.
package vptree

import (
	"errors"
	"math"
	"sync"

	"mvptree/internal/build"
	"mvptree/internal/cascade"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
)

// Build is the shared construction options (Workers, Seed) every index
// package embeds; see build.Options.
type Build = build.Options

// SelectionStrategy picks how vantage points are chosen during
// construction.
type SelectionStrategy int

const (
	// SelectRandom picks a uniformly random point, the default the
	// paper uses ("the random function used to pick vantage points").
	SelectRandom SelectionStrategy = iota
	// SelectBestSpread implements the heuristic of [Yia93]: sample a
	// few candidate vantage points, estimate for each the spread of
	// its distances to one random subset of the node's points (their
	// variance), and keep the candidate with the largest spread
	// (build.SelectVantage, which the mvp-tree uses by default).
	SelectBestSpread
)

// Options configure construction of a vp-tree.
type Options struct {
	// Build holds the shared construction knobs: Workers spreads
	// construction's distance computations and subtree builds over a
	// bounded goroutine pool (the tree built is identical for every
	// worker count), and Seed makes vantage selection deterministic.
	Build
	// Order is the branching factor m ≥ 2. Each node partitions its
	// points into Order equal-cardinality spherical shells. The
	// default is 2, the binary vp-tree.
	Order int
	// LeafCapacity is the maximum number of points stored in a leaf
	// node (a plain bucket scanned exhaustively at query time). The
	// default is 1. The classic vp-tree keeps partitioning all the way
	// down, which corresponds to a small leaf capacity.
	LeafCapacity int
	// Selection chooses the vantage-point selection strategy.
	Selection SelectionStrategy
	// Candidates and SampleSize tune SelectBestSpread: Candidates
	// vantage candidates are evaluated against one sample of
	// SampleSize random points (at most build.MaxSample, 64). Defaults
	// are 5 and 20. Ignored for SelectRandom.
	Candidates int
	SampleSize int
	// FlatVectors, for []float64 items only, copies every leaf's
	// vectors into one contiguous arena after construction so leaf
	// scans read sequential memory. Results, distance counts and the
	// serialized form are unaffected; silently ignored for non-vector
	// item types.
	FlatVectors bool
	// Quantize, for []float64 items under a metric with a registered
	// quantized lower-bound shape, arms the quantized leaf pre-filter
	// (internal/quant): candidates whose quantized lower bound
	// certifies d > threshold skip the exact float64 evaluation.
	// Results, order, SearchStats and counter deltas are byte-identical
	// on or off; silently ignored when the items or metric cannot be
	// quantized. Equivalent to calling EnableQuantize after
	// construction.
	Quantize quant.Mode
}

func (o *Options) setDefaults() {
	if o.Order == 0 {
		o.Order = 2
	}
	if o.LeafCapacity == 0 {
		o.LeafCapacity = 1
	}
	if o.Candidates == 0 {
		o.Candidates = 5
	}
	if o.SampleSize == 0 {
		o.SampleSize = 20
	}
}

func (o *Options) validate() error {
	if err := o.Build.Validate("vptree"); err != nil {
		return err
	}
	if o.Order < 2 {
		return errors.New("vptree: Order must be at least 2")
	}
	if o.LeafCapacity < 1 {
		return errors.New("vptree: LeafCapacity must be at least 1")
	}
	if o.Candidates < 1 || o.SampleSize < 1 {
		return errors.New("vptree: Candidates and SampleSize must be at least 1")
	}
	return nil
}

// Tree is an m-way vantage-point tree over a fixed item set. The
// embedded obs.Hooks let callers attach an Observer and/or Tracer; with
// neither attached the query paths pay only nil checks.
type Tree[T any] struct {
	obs.Hooks
	root       *node[T]
	dist       *metric.Counter[T]
	size       int
	order      int
	buildStats build.Stats
	scratch    sync.Pool // *queryScratch[T]; see stats.go
	bscratch   sync.Pool // *batchScratch[T]; see batch.go
	// cas is the cross-query bound cascade, nil unless EnableCascade
	// built one; see cascade.go.
	cas *cascade.Filter[T]
	// qset is the trained quantized pre-filter, nil unless
	// EnableQuantize built one; see quantize.go.
	qset *quant.Set
}

var _ index.StatsIndex[int] = (*Tree[int])(nil)

type node[T any] struct {
	// Internal node fields. vantage is a real data point. cutMax
	// caches the largest shell boundary: a query-to-vantage distance
	// certified to exceed radius+cutMax prunes every bounded shell and
	// visits only the unbounded outermost one, so the search can hand
	// the distance kernel a finite abandonment bound without changing
	// any traversal decision.
	vantage  T
	cutoffs  []float64 // order-1 ascending boundaries between shells
	children []*node[T]
	cutMax   float64
	// Leaf node fields.
	leaf  bool
	items []T

	// Cascade stamps (see cascade.go; all zero until EnableCascade).
	// cas marks the vantage point as a cascade pivot (pivot index plus
	// one; zero means unstamped), casBase is the cascade id of the
	// leaf's first item.
	cas     int32
	casBase int32

	// Quantized companion view of items (non-nil when the tree's qset
	// is armed): len(items)·dim codes, item i's block at i·dim. See
	// quantize.go.
	qcodes []byte
}

// setDerived recomputes the cached abandonment bound from the stored
// cutoffs; construction and Load both route through it.
func (n *node[T]) setDerived() {
	n.cutMax = 0
	for _, c := range n.cutoffs {
		if c > n.cutMax {
			n.cutMax = c
		}
	}
}

// New builds a vp-tree over items using the counted metric dist. The
// items slice is not retained. Distance computations made during
// construction are visible on dist and also recorded in BuildCost.
func New[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], error) {
	t, _, err := NewWithStats(items, dist, opts)
	return t, err
}

// NewWithStats is New plus the shared construction report: distance
// computations, wall time, node count and depth (build.Stats).
func NewWithStats[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], build.Stats, error) {
	opts.setDefaults()
	if err := opts.validate(); err != nil {
		return nil, build.Stats{}, err
	}
	t := &Tree[T]{dist: dist, size: len(items), order: opts.Order}
	c := construction[T]{
		t: t, b: build.Start(dist, opts.Build), opts: &opts, items: items,
		Scratch: build.NewScratch(len(items)),
	}
	t.root = c.build(0, len(items), build.NewRNG(opts.Seed, 0x767074726565), 0)
	t.buildStats = c.b.Finish()
	if opts.FlatVectors {
		t.flattenLeafVectors()
	}
	if opts.Quantize != quant.Off {
		if err := t.EnableQuantize(opts.Quantize); err != nil {
			return nil, build.Stats{}, err
		}
	}
	return t, t.buildStats, nil
}

// flattenLeafVectors rewrites every leaf's item vectors into one
// contiguous arena (no-op for non-[]float64 item types).
func (t *Tree[T]) flattenLeafVectors() {
	var groups [][]T
	var walk func(n *node[T])
	walk = func(n *node[T]) {
		if n == nil {
			return
		}
		if n.leaf {
			if len(n.items) > 0 {
				groups = append(groups, n.items)
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	build.FlattenVectors(groups)
}

// construction is the state of one tree build: the tree is built over
// a permutation of item positions partitioned in place (build.Scratch),
// the subtree over slots [lo, hi) owning those slots of the
// permutation, the distance row and the sort keys.
type construction[T any] struct {
	t     *Tree[T]
	b     *build.Builder[T]
	opts  *Options
	items []T
	build.Scratch
}

// build constructs the subtree over slots [lo, hi). src is the
// splittable RNG fixed by this subtree's position, so the tree is
// identical for every worker count.
func (c *construction[T]) build(lo, hi int, src build.RNG, depth int) *node[T] {
	perm := c.Perm[lo:hi]
	if len(perm) == 0 {
		return nil
	}
	c.b.Node(depth)
	if len(perm) <= c.opts.LeafCapacity {
		leaf := &node[T]{leaf: true, items: make([]T, len(perm))}
		for i, id := range perm {
			leaf.items[i] = c.items[id]
		}
		return leaf
	}
	vi := c.selectVantage(perm, src)
	last := len(perm) - 1
	perm[vi], perm[last] = perm[last], perm[vi]
	n := &node[T]{vantage: c.items[perm[last]]}
	rest, keys := perm[:last], c.Keys[lo:lo+last]
	c.b.MeasureKeys(n.vantage, c.items, rest, c.Dist[lo:lo+last], keys)

	m := min(c.opts.Order, len(rest))
	if m < 2 {
		// One remaining point: a single child leaf.
		n.children = []*node[T]{c.build(lo, lo+last, src.Child(0), depth+1)}
		return n
	}
	// Cutoff g lies between the largest distance in group g and the
	// smallest in the next; every point in group g is ≤ cutoff[g] and
	// every point in group g+1 is ≥ cutoff[g].
	n.cutoffs = build.SplitEqual(keys, m)
	for i, k := range keys {
		rest[i] = k.ID
	}
	n.children = make([]*node[T], m)
	n.setDerived()
	c.b.Fork(m, func(g int) {
		groupLo, groupHi := build.GroupBounds(len(rest), m, g)
		n.children[g] = c.build(lo+groupLo, lo+groupHi, src.Child(g), depth+1)
	})
	return n
}

// selectVantage returns the slot, within the subtree's permutation
// range, of the point to promote to vantage point.
func (c *construction[T]) selectVantage(perm []int32, src build.RNG) int {
	if c.opts.Selection == SelectRandom {
		return src.Pick(len(perm))
	}
	return c.b.SelectVantage(c.items, perm, src.Rand(), c.opts.Candidates, c.opts.SampleSize)
}

// Len reports the number of indexed items.
func (t *Tree[T]) Len() int { return t.size }

// Counter returns the counted metric the tree measures distances with.
func (t *Tree[T]) Counter() *metric.Counter[T] { return t.dist }

// DistanceCount reports the cumulative distance computations on the
// tree's counter (build + queries), the paper's cost metric.
func (t *Tree[T]) DistanceCount() int64 { return t.dist.Count() }

// BuildCost reports the number of distance computations made during
// construction (O(n · log_m n) for order m).
func (t *Tree[T]) BuildCost() int64 { return t.buildStats.Distances }

// BuildStats reports the full construction report (zero for a tree
// produced by Load, which computes no distances).
func (t *Tree[T]) BuildStats() build.Stats { return t.buildStats }

// Height reports the height of the tree in edges; a tree holding at most
// one leaf has height 0.
func (t *Tree[T]) Height() int { return height(t.root) }

func height[T any](n *node[T]) int {
	if n == nil || n.leaf {
		return 0
	}
	h := 0
	for _, c := range n.children {
		if ch := height(c); ch > h {
			h = ch
		}
	}
	return h + 1
}

// shellBounds returns the closed distance interval covered by child g.
func shellBounds(cutoffs []float64, g int) (lo, hi float64) {
	lo, hi = 0, math.Inf(1)
	if g > 0 {
		lo = cutoffs[g-1]
	}
	if g < len(cutoffs) {
		hi = cutoffs[g]
	}
	return lo, hi
}

// Range returns every indexed item within distance r of q. It is a
// wrapper over Search, so there is exactly one traversal implementation.
func (t *Tree[T]) Range(q T, r float64) []T {
	return t.Search(index.RangeQuery(q, r)).Items
}

// KNN returns the k nearest indexed items using best-first traversal:
// subtrees are visited in order of their triangle-inequality lower bound
// and search stops when no pending subtree can beat the k-th candidate.
// It is KNNWithStats without the stats (single traversal implementation).
func (t *Tree[T]) KNN(q T, k int) []index.Neighbor[T] {
	return t.knn(q, k, index.SearchOptions{}).Neighbors
}
