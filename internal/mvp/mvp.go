// Package mvp implements the multi-vantage-point (mvp) tree of Bozkaya &
// Ozsoyoglu (SIGMOD 1997), the paper's primary contribution.
//
// The mvp-tree is a static, balanced, distance-based index for metric
// spaces. It differs from the vp-tree in two ways, and this package is
// both trees: Options.Vantages 1 with no retained distances is the m-way
// vp-tree of the paper's §3.3 (internal/vptree is that constructor).
//
//  1. Every node uses two vantage points. The first partitions the
//     node's points into m equal-cardinality spherical shells; the
//     second partitions each shell into m further parts, giving fanout
//     m² with only two vantage points — half as many vantage points per
//     level as an equivalent vp-tree, so fewer query-to-vantage-point
//     distance computations during search (paper Observation 1).
//
//  2. Every data point stored in a leaf keeps the first p distances to
//     the vantage points on its root-to-leaf path, computed anyway
//     during construction. At query time these pre-computed distances
//     give triangle-inequality lower bounds that filter leaf points
//     before any real distance computation (paper Observation 2).
//
// The paper draws every first vantage point at random; here an internal
// node keeps, of a few drawn candidates, the one whose distances to a
// sample of its points are most spread (build.SelectVantage, the
// [Yia93] heuristic), since every shell boundary and PATH entry below
// it is a distance to that point. Leaves, and nodes too small to
// sample, draw; Options.RandomFirstVantage draws everywhere. The second
// vantage point is the paper's: the farthest point from the first.
//
// Leaves also store each point's distances to the leaf's own two vantage
// points (the D1/D2 arrays of the paper; 16-bit codes, see fixed.go), and k is
// typically made large so that most points live in leaves, delaying the
// major filtering step to the leaf level where it is cheapest.
//
// Queries (Range, KNN and their variants) read only immutable state and
// are safe to run concurrently against one instance; the shared
// distance counter is atomic.
package mvp

import (
	"errors"
	"math"
	"sync"
	"unsafe"

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

// Options configure construction of an mvp-tree. The three parameters
// named in the paper (§4.2) are Partitions (m), LeafCapacity (k) and
// PathLength (p).
type Options struct {
	// Build holds the shared construction knobs: Workers spreads
	// construction's distance computations and subtree builds over a
	// bounded goroutine pool (the tree built is byte-for-byte identical
	// for every worker count), and Seed makes vantage-point selection
	// deterministic.
	Build
	// Vantages is v, the number of vantage points per node: 2 (also what
	// 0 means) is the mvp-tree, 1 the m-way vp-tree, whose nodes have one
	// child per shell and whose leaf points keep no D2.
	Vantages int
	// Partitions is m, the number of partitions created by each
	// vantage point; each node has fanout mᵛ. The paper finds m=3 the
	// sweet spot for its vector workloads. Default 2 (the paper's
	// presentation case).
	Partitions int
	// LeafCapacity is k, the maximum number of data points in a leaf
	// in addition to the leaf's vantage points. The paper recommends
	// large leaves (e.g. 80) so most points are filtered by the
	// pre-computed distances. 0 means the default, 13; -1 requests a
	// genuine zero: leaves of vantage points only, the classic vp-tree's.
	LeafCapacity int
	// PathLength is p, the number of ancestor-vantage-point distances
	// retained for every leaf point. It cannot exceed the number of
	// vantage points on a root-to-leaf path; extra slots are simply
	// never filled. PathLength 0 means the default, 4; -1 requests a
	// genuine zero, which disables path filtering (the abl-p ablation).
	PathLength int
	// RandomFirstVantage, when true, draws the first vantage point of
	// every internal node uniformly at random, as the paper's
	// implementation does, instead of keeping the candidate with the
	// largest sampled spread of distances (build.SelectVantage). The
	// draw consumes the node's random stream exactly as construction
	// did before selection existed, so the trees are those builds' byte
	// for byte; this switch exists for the ablation experiment that
	// quantifies the choice and for the paper's tables.
	RandomFirstVantage bool
	// RandomSecondVantage, when true, picks the second vantage point
	// uniformly from the outermost shell instead of taking the point
	// farthest from the first vantage point. The paper argues the
	// farthest point is the best candidate (§4.2); this switch exists
	// for the ablation experiment that quantifies the claim.
	RandomSecondVantage bool
	// Quantize, for []float64 items under a metric with a registered
	// quantized lower-bound shape (metric.RegisterQuantized), builds a
	// small companion representation of every leaf (internal/quant) that
	// leaf scans consult before the exact kernel: candidates whose
	// quantized lower bound certifies d > threshold skip the float64
	// evaluation. Results, order, SearchStats and counter deltas are
	// byte-identical on or off; the option is silently ignored when the
	// items or metric cannot be quantized. Equivalent to calling
	// EnableQuantize after construction.
	Quantize quant.Mode
}

func (o *Options) setDefaults() {
	if o.Vantages == 0 {
		o.Vantages = 2
	}
	if o.Partitions == 0 {
		o.Partitions = 2
	}
	switch o.LeafCapacity {
	case 0:
		o.LeafCapacity = 13
	case -1:
		o.LeafCapacity = 0
	}
	switch {
	case o.PathLength == 0:
		o.PathLength = 4
	case o.PathLength < 0:
		o.PathLength = 0
	}
}

func (o *Options) validate() error {
	if err := o.Build.Validate("mvp"); err != nil {
		return err
	}
	if o.Vantages != 1 && o.Vantages != 2 {
		return errors.New("mvp: Vantages must be 1 or 2")
	}
	if o.Partitions < 2 {
		return errors.New("mvp: Partitions must be at least 2")
	}
	if o.LeafCapacity < 0 {
		return errors.New("mvp: LeafCapacity must be positive, or -1 for none")
	}
	if o.RandomSecondVantage && o.Vantages == 1 {
		return errors.New("mvp: RandomSecondVantage needs a second vantage point (Vantages 2)")
	}
	return nil
}

// Tree is a multi-vantage-point tree over a fixed item set. The
// embedded obs.Hooks let callers attach an Observer and/or Tracer
// (SetObserver / SetTracer); with neither attached the query paths pay
// only nil checks.
type Tree[T any] struct {
	obs.Hooks
	root *node[T]
	dist *metric.Counter[T]
	size int
	v    int
	m    int
	k    int
	p    int
	// The two leaf arenas, in leaf order: every leaf item, and per item
	// one filter row (D1, D2, the leaf's held PATH entries) of fixed-point
	// codes: a code c stands for the distance c·step, and slack is what
	// putting the distances on that grid may have lost; see fixed.go.
	items      []T
	filter     []uint16
	step       float64
	slack      float64
	buildStats build.Stats
	scratch    sync.Pool // *queryScratch[T]; see pool.go
	bscratch   sync.Pool // *batchScratch[T]; see batch.go
	// cas is the cross-query bound cascade, nil unless EnableCascade
	// built one; see cascade.go.
	cas *cascade.Filter[T]
	// qset is the trained quantized pre-filter, nil unless
	// EnableQuantize built one; see quantize.go.
	qset *quant.Set
}

var _ index.StatsIndex[int] = (*Tree[int])(nil)

// node is either an internal node (children != nil) or a leaf. Both
// kinds carry up to v vantage points, which are real data points.
type node[T any] struct {
	sv1, sv2 T
	hasSV1   bool
	hasSV2   bool

	// Internal node: cut1 partitions by distance to sv1 into
	// len(cut1)+1 shells; cut2[g] partitions shell g by distance to
	// sv2. children[g][h] indexes shell g, sub-shell h. With one vantage
	// point cut2[g] is empty — one sub-shell, [0, +Inf] — and every shell
	// has the one child children[g][0]. cut1Max and
	// cut2Max cache the largest finite shell boundary per vantage
	// point: any query-to-vantage distance certified to exceed
	// radius+cutMax prunes every inner shell and leaves only the
	// unbounded outermost one, which is what lets the search pass a
	// finite bound to the distance kernel without changing a single
	// traversal decision.
	cut1     []float64
	cut2     [][]float64
	children [][]*node[T]
	cut1Max  float64
	cut2Max  float64

	// Leaf node: a view into the tree's arenas (Tree.leaf): cnt items
	// from items[off], their filter rows from filter[foff]. A row is the
	// item's distances to the leaf vantage points (the paper's D1, D2;
	// with one vantage point the D2 slot is a zero no scan reads, so that
	// the PATH codes sit at a constant offset in both trees: an offset of
	// v cost the mvp-tree's leaf scans 2–6 % on uniform vectors, and only
	// a bucketed vp-tree has rows to waste the 2 bytes in) and
	// held = min(p, v·depth) PATH entries. maxD1/maxD2 cache the
	// largest stored leaf distance plus the tree's slack, the abandonment
	// bounds for the leaf's vantage-point kernels (sealLeaves).
	off, cnt, held int32
	foff           int
	maxD1, maxD2   float64

	// Cascade stamps (see cascade.go; all zero until EnableCascade).
	// cas1/cas2 mark the node's vantage points as cascade pivots (the
	// stamp is the pivot index plus one; zero means unstamped) and
	// casBase is the cascade id of the leaf's first item — in a leaf
	// without items, of its first vantage point.
	cas1, cas2 int32
	casBase    int32

	// Quantized companion view of items (non-nil when the tree's qset
	// is armed): len(items)·dim codes, item i's block at i·dim. See
	// quantize.go.
	qcodes []byte
}

func (n *node[T]) isLeaf() bool { return n.children == nil }

// point returns the i-th point, of at most two, of a leaf without items:
// its i-th vantage point (checkShape: no second without a first).
func (n *node[T]) point(i int) (*T, bool) {
	if i == 0 {
		return &n.sv1, n.hasSV1
	}
	return &n.sv2, n.hasSV2
}

// leaf returns leaf n's items and rows; item i's is rows[i*stride:][:stride].
func (t *Tree[T]) leaf(n *node[T]) (items []T, rows []uint16, stride int) {
	stride = 2 + int(n.held)
	return t.items[n.off : n.off+n.cnt], t.filter[n.foff : n.foff+int(n.cnt)*stride], stride
}

// eachLeaf calls f on every leaf below n, in arena order.
func (n *node[T]) eachLeaf(f func(*node[T])) {
	switch {
	case n == nil:
	case n.isLeaf():
		f(n)
	default:
		for _, row := range n.children {
			for _, c := range row {
				c.eachLeaf(f)
			}
		}
	}
}

// encodeLeaves puts raw, the leaves' distances laid out as the filter
// arena is, on the grid of step 2^exp: stepExp(raw), the smallest that
// holds the largest of them, unless Load has a reason for a coarser one.
func (t *Tree[T]) encodeLeaves(raw []float64, exp int) {
	t.step = math.Ldexp(1, exp)
	t.filter = make([]uint16, len(raw))
	for i, x := range raw {
		t.filter[i] = encode(x, t.step)
	}
}

// sealLeaves derives from the filled filter arena the tree's slack and
// every leaf's maxD, the largest D1 and D2 in its rows plus that slack: a
// vantage distance certified past r+maxD must fail every window of
// half-width r+slack. Build and Load end here.
func (t *Tree[T]) sealLeaves() {
	t.slack = slackOf(t.filter, t.step)
	t.root.eachLeaf(func(n *node[T]) {
		var top1, top2 uint16
		_, rows, stride := t.leaf(n)
		for ; len(rows) > 0; rows = rows[stride:] {
			top1, top2 = max(top1, rows[0]), max(top2, rows[1])
		}
		n.maxD1, n.maxD2 = t.decode(top1)+t.slack, t.decode(top2)+t.slack
	})
}

// setDerived recomputes an internal node's cached filter bounds from its
// cutoffs; construction and Load both route through it.
func (n *node[T]) setDerived() {
	n.cut1Max, n.cut2Max = maxOf(n.cut1), 0
	for _, row := range n.cut2 {
		n.cut2Max = max(n.cut2Max, maxOf(row))
	}
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// New builds an mvp-tree over items using the counted metric dist. The
// items slice is not retained. Construction makes O(n · log_m n)
// distance computations, visible on dist and recorded in BuildCost.
func New[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], error) {
	t, _, err := NewWithStats(items, dist, opts)
	return t, err
}

// rngSalt seeds the build's random stream, by v: the two trees drew from
// streams of their own ("mvptree", "vptree") when they were two packages,
// and keep the trees those seeds gave.
var rngSalt = [...]uint64{1: 0x767074726565, 2: 0x6d767074726565}

// NewWithStats is New plus the shared construction report: distance
// computations, wall time, node count and depth (build.Stats).
func NewWithStats[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], build.Stats, error) {
	opts.setDefaults()
	if err := opts.validate(); err != nil {
		return nil, build.Stats{}, err
	}
	t := &Tree[T]{
		dist: dist,
		size: len(items),
		v:    opts.Vantages,
		m:    opts.Partitions,
		k:    opts.LeafCapacity,
		p:    opts.PathLength,
	}
	c := construction[T]{
		t: t, b: build.Start(dist, opts.Build), opts: &opts, items: items,
		Scratch: build.NewScratch(len(items)),
		paths:   make([]float64, len(items)*t.p),
	}
	leafItems, floats := c.leafLoad(len(items), 0)
	t.items, c.raw = make([]T, leafItems), make([]float64, floats)
	t.root = c.build(0, len(items), build.NewRNG(opts.Seed, rngSalt[t.v]), 0, 0, 0)
	t.encodeLeaves(c.raw, stepExp(c.raw))
	t.sealLeaves()
	t.buildStats = c.b.Finish()
	if opts.Quantize != quant.Off {
		if err := t.EnableQuantize(opts.Quantize); err != nil {
			return nil, build.Stats{}, err
		}
	}
	return t, t.buildStats, nil
}

// Len reports the number of indexed items.
func (t *Tree[T]) Len() int { return t.size }

// Counter returns the counted metric the tree measures distances with.
func (t *Tree[T]) Counter() *metric.Counter[T] { return t.dist }

// DistanceCount reports the cumulative distance computations on the
// tree's counter (build + queries), the paper's cost metric.
func (t *Tree[T]) DistanceCount() int64 { return t.dist.Count() }

// BuildCost reports the number of distance computations made during
// construction.
func (t *Tree[T]) BuildCost() int64 { return t.buildStats.Distances }

// BuildStats reports the full construction report (zero for a tree
// produced by Load, which computes no distances).
func (t *Tree[T]) BuildStats() build.Stats { return t.buildStats }

// Vantages returns v, Partitions m, LeafCapacity k and PathLength p as
// actually used (after defaulting).
func (t *Tree[T]) Vantages() int     { return t.v }
func (t *Tree[T]) Partitions() int   { return t.m }
func (t *Tree[T]) LeafCapacity() int { return t.k }
func (t *Tree[T]) PathLength() int   { return t.p }

// Height reports the height of the tree in node levels below the root; a
// tree that is a single leaf has height 0.
func (t *Tree[T]) Height() int { return t.Shape().Height }

// Stats describes the shape of a built tree.
type Stats struct {
	Nodes         int // total nodes (internal + leaf)
	Leaves        int
	VantagePoints int // data points promoted to vantage points
	LeafItems     int // data points stored in leaves
	Height        int
	MaxPathLen    int // longest retained PATH across all leaf points
	FilterBytes   int // the filter arena: 2·(2+held) per leaf item
	// FilterStep is the grid the leaf distances are stored on and
	// FilterSlack what that may have cost each of them: 0 (every distance
	// is on the grid), FilterStep, or +Inf (a distance was not a number
	// the grid holds, and the leaf filter passes everything). The step is
	// tree-wide and set by the largest stored distance, so one far outlier
	// coarsens it for all; see docs/TUNING.md.
	FilterStep, FilterSlack float64
}

// Shape walks the tree and reports its Stats.
func (t *Tree[T]) Shape() Stats {
	s := Stats{
		FilterBytes: len(t.filter) * int(unsafe.Sizeof(t.filter[0])),
		FilterStep:  t.step, FilterSlack: t.slack,
	}
	walkShape(t.root, 0, &s)
	return s
}

func walkShape[T any](n *node[T], depth int, s *Stats) {
	if n == nil {
		return
	}
	s.Nodes++
	s.Height = max(s.Height, depth)
	if n.hasSV1 {
		s.VantagePoints++
	}
	if n.hasSV2 {
		s.VantagePoints++
	}
	if n.isLeaf() {
		s.Leaves++
		s.LeafItems += int(n.cnt)
		if n.cnt > 0 {
			s.MaxPathLen = max(s.MaxPathLen, int(n.held))
		}
	}
	for _, row := range n.children {
		for _, c := range row {
			walkShape(c, depth+1, s)
		}
	}
}

// shellBounds returns the closed distance interval covered by shell g of
// a cutoff array (same convention as the vp-tree).
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

// intervalGap returns the lower bound on |x - y| for y ∈ [lo, hi]: zero
// when x is inside the interval, otherwise the distance to the nearer
// endpoint. It is the triangle-inequality lower bound used to prune a
// shell given the query's distance x to the shell's vantage point.
func intervalGap(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo - x
	case x > hi:
		return x - hi
	default:
		return 0
	}
}
