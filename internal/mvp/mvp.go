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
	// largest sampled spread of distances (build.SelectVantage). This
	// is the paper's build, for its tables and for the ablation that
	// quantifies the choice. It is a draw from the same lottery as any
	// earlier version's, not the same tree: which point a draw lands on
	// depends on the order the partition step left a node's points in,
	// and that order is pinned only as far as build.SplitEqual says.
	RandomFirstVantage bool
	// RandomSecondVantage, when true, picks the second vantage point
	// uniformly from the outermost shell instead of taking the point
	// farthest from the first vantage point. The paper argues the
	// farthest point is the best candidate (§4.2); this switch exists
	// for the ablation experiment that quantifies the claim.
	RandomSecondVantage bool
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
//
// The tree holds no pointer from node to node: a node is an index into
// nodes, numbered in construction pre-order (the root is 0, a child's
// index is above its parent's), and everything a node owns is a range of
// an arena the tree owns whole.
type Tree[T any] struct {
	obs.Hooks
	dist   *metric.Counter[T]
	size   int
	v      int
	m      int
	k      int
	p      int
	height int
	// The node arenas. vps holds v vantage-point slots per node, node i's
	// at vps[i·v]; cuts and kids hold the internal nodes' cutoffs and
	// child indices (Tree.inner).
	nodes []node
	vps   []T
	cuts  []float64
	kids  []int32
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
	// cpivots are the bound cascade's pivots and ccodes its companion to the
	// item arena, one code per pivot and item on the grid of cstep, cslack
	// what that grid lost; nil unless EnableCascade built them; see
	// cascade.go.
	cpivots       []T
	ccodes        []uint16
	cstep, cslack float64
	// qset is the trained quantized pre-filter and qcodes its companion to
	// the item arena, nil unless EnableQuantize built them; see quantize.go.
	qset   *quant.Set
	qcodes []byte
}

var _ index.StatsIndex[int] = (*Tree[int])(nil)

// node is one row of Tree.nodes, an internal node or a leaf. Both kinds
// carry up to v vantage points, which are real data points: svs of them,
// a second never without a first. What a visit reads of a node is one
// 24-byte row, not a column per field: one cache line, where columns of
// the same widths would be as many bytes in up to seven.
//
// Internal node: shells = cnt shells by distance to the first vantage
// point, each cut again by distance to the second; the cutoffs start at
// cuts[off] and the child indices at kids[foff], laid out as Tree.inner
// reads them. With one vantage point a shell is not cut again — one
// sub-shell, [0, +Inf] — and is its one child.
//
// Leaf node: a view into the tree's leaf arenas (Tree.leaf): cnt items
// from items[off], their filter rows from filter[foff]. A row is the
// item's distances to the leaf vantage points (the paper's D1, D2;
// with one vantage point the D2 slot is a zero no scan reads, so that
// the PATH codes sit at a constant offset in both trees: an offset of
// v cost the mvp-tree's leaf scans 2–6 % on uniform vectors, and only
// a bucketed vp-tree has rows to waste the 2 bytes in) and
// held = min(p, v·depth) PATH entries. top1/top2 are the largest D1 and
// D2 codes in the rows: what they stand for plus the tree's slack is the
// abandonment bound for the leaf's vantage-point kernels (Tree.maxD).
type node struct {
	off, cnt   int32
	foff       int
	top1, top2 uint16
	held       uint16
	svs        uint8
	internal   bool
}

// noChild is the child index of a shell the build left empty.
const noChild = -1

func (n *node) isLeaf() bool { return !n.internal }
func (n *node) hasSV2() bool { return n.svs > 1 }

// vantages returns node i's vantage-point slots, of which the first
// nodes[i].svs hold one.
func (t *Tree[T]) vantages(i int32) []T { return t.vps[int(i)*t.v:][:t.v] }

// points returns the vantage points node i holds — all there is to a leaf
// without items (rangeBare).
func (t *Tree[T]) points(i int32) []T { return t.vantages(i)[:t.nodes[i].svs] }

// leaf returns leaf n's items and rows; item i's is rows[i*stride:][:stride].
func (t *Tree[T]) leaf(n *node) (items []T, rows []uint16, stride int) {
	stride = 2 + int(n.held)
	return t.items[n.off : n.off+n.cnt], t.filter[n.foff : n.foff+int(n.cnt)*stride], stride
}

// maxD returns what the kernels of leaf n's two vantage points may
// abandon past, over the radius: the largest stored D1 and D2 plus the
// slack. A vantage distance certified past r+maxD must fail every window
// of half-width r+slack.
func (t *Tree[T]) maxD(n *node) [2]float64 {
	return [2]float64{t.decode(n.top1) + t.slack, t.decode(n.top2) + t.slack}
}

// shells walks the shells of one internal node, innermost first.
type shells struct {
	parts []int32 // children per shell; nil with one vantage point: one each
	kids  []int32
	cut2  []float64
}

// inner returns what internal node n keeps in the cutoff and child
// arenas. Its cutoffs are v cached bounds, cut1 and then each shell's
// cut2 row; its children, with two vantage points, a count per shell and
// then each shell's row. cut1 partitions by distance to the first vantage
// point into len(cut1)+1 shells, and sh.next returns them in turn.
//
// cutMax caches the largest finite shell boundary per vantage point: any
// query-to-vantage distance certified to exceed radius+cutMax prunes
// every inner shell and leaves only the unbounded outermost one, which is
// what lets the search pass a finite bound to the distance kernel without
// changing a single traversal decision.
func (t *Tree[T]) inner(n *node) (cut1 []float64, cutMax [2]float64, sh shells) {
	cuts, kids, s := t.cuts[n.off:], t.kids[n.foff:], int(n.cnt)
	copy(cutMax[:], cuts[:t.v])
	if t.v == 2 {
		sh.parts, kids = kids[:s], kids[s:]
	}
	cuts = cuts[t.v:]
	sh.kids, sh.cut2 = kids, cuts[s-1:]
	return cuts[:s-1], cutMax, sh
}

// next returns the next shell: row[h] is the index of the child over
// sub-shell h, noChild where there is none, and cut2 partitions the shell
// by distance to the second vantage point into len(row) sub-shells.
func (sh *shells) next() (row []int32, cut2 []float64) {
	parts := 1
	if sh.parts != nil {
		parts, sh.parts = int(sh.parts[0]), sh.parts[1:]
	}
	row, sh.kids = sh.kids[:parts], sh.kids[parts:]
	cut2, sh.cut2 = sh.cut2[:parts-1], sh.cut2[parts-1:]
	return row, cut2
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
// every leaf's top1 and top2; Load ends here. It is the build's seal in
// one piece, over codes already in place.
func (t *Tree[T]) sealLeaves() { t.slack = t.stamp(nil, 0, len(t.nodes)) }

// stamp finishes the leaves among nodes [lo, hi): it puts their rows of
// raw — the distances laid out as the filter arena is — on the tree's
// grid (raw nil: the codes are in place), sets each one's top1 and top2,
// and returns the slack of their codes (slackOf). The tree's slack is the
// largest of its pieces'.
func (t *Tree[T]) stamp(raw []float64, lo, hi int) (slack float64) {
	for i := lo; i < hi; i++ {
		n := &t.nodes[i]
		if n.internal {
			continue
		}
		_, rows, stride := t.leaf(n)
		if raw != nil {
			for j, x := range raw[n.foff : n.foff+len(rows)] {
				rows[j] = encode(x, t.step)
			}
		}
		n.top1, n.top2 = 0, 0
		for r := rows; len(r) > 0; r = r[stride:] {
			n.top1, n.top2 = max(n.top1, r[0]), max(n.top2, r[1])
		}
		slack = max(slack, slackOf(rows, t.step))
	}
	return slack
}

// cutMax is the bound inner caches for a vantage point's cutoffs.
func cutMax(xs []float64) float64 {
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
	c.run = c.do
	// A node's split tasks of one kind: its shells, or the first split
	// beside two pieces a worker of the row of distances to the second
	// vantage point.
	c.span = max(t.m, 1+2*c.b.Workers())
	// Where a subtree's nodes, leaves and cutoffs land depends on its size
	// and depth alone, so the arenas are allocated whole and every node
	// writes itself straight into place.
	all := c.load(len(items), 0)
	t.nodes, t.vps = make([]node, all.nodes), make([]T, all.nodes*t.v)
	t.cuts, t.kids = make([]float64, all.cuts), make([]int32, all.kids)
	t.items, c.raw = make([]T, all.items), make([]float64, all.floats)
	c.tasks = make([]task, all.kids)
	if t.v == 2 && all.nodes > 1 {
		c.splits = make([]split, all.nodes)
	}
	c.build(task{hi: len(items), rng: build.NewRNG(opts.Seed, rngSalt[t.v])})
	c.seal()
	t.buildStats = c.b.Finish()
	t.height = t.buildStats.MaxDepth
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
func (t *Tree[T]) Height() int { return t.height }

// Stats describes the shape of a built tree.
type Stats struct {
	Nodes         int // total nodes (internal + leaf)
	Leaves        int
	VantagePoints int // data points promoted to vantage points
	LeafItems     int // data points stored in leaves
	Height        int
	MaxPathLen    int // longest retained PATH across all leaf points
	FilterBytes   int // the filter arena: 2·(2+held) per leaf item
	// NodeBytes is the four node arenas: a 24-byte row and v vantage-point
	// slots per node and, per internal node, its cutoffs and child indices.
	// With LeafItems item slots and FilterBytes it is the whole index.
	NodeBytes int
	// FilterStep is the grid the leaf distances are stored on and
	// FilterSlack what that may have cost each of them: 0 (every distance
	// is on the grid), FilterStep, or +Inf (a distance was not a number
	// the grid holds, and the leaf filter passes everything). The step is
	// tree-wide and set by the largest stored distance, so one far outlier
	// coarsens it for all; see docs/TUNING.md.
	FilterStep, FilterSlack float64
	// What EnableCascade armed, zero without: the pivots every query pays
	// for, the bytes of their columns (2 per pivot and leaf item), and the
	// columns' own grid, as FilterStep and FilterSlack are the leaf rows'.
	CascadePivots, CascadeBytes int
	CascadeStep, CascadeSlack   float64
}

// Shape reports the tree's Stats, from one pass over the node rows.
func (t *Tree[T]) Shape() Stats {
	var zero T
	s := Stats{
		Nodes: len(t.nodes), LeafItems: len(t.items), Height: t.height,
		FilterBytes: len(t.filter) * int(unsafe.Sizeof(t.filter[0])),
		NodeBytes: len(t.nodes)*int(unsafe.Sizeof(node{})) + len(t.vps)*int(unsafe.Sizeof(zero)) +
			len(t.cuts)*int(unsafe.Sizeof(t.cuts[0])) + len(t.kids)*int(unsafe.Sizeof(t.kids[0])),
		FilterStep: t.step, FilterSlack: t.slack,
		CascadePivots: len(t.cpivots), CascadeBytes: len(t.ccodes) * int(unsafe.Sizeof(t.ccodes[0])),
		CascadeStep: t.cstep, CascadeSlack: t.cslack,
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		s.VantagePoints += int(n.svs)
		if n.isLeaf() {
			s.Leaves++
			if n.cnt > 0 {
				s.MaxPathLen = max(s.MaxPathLen, int(n.held))
			}
		}
	}
	return s
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
