// Package gmvp generalizes the mvp-tree to any number v of vantage
// points per node. The paper notes (§4.2): "the mvp-tree construction
// can be modified easily so that more than 2 vantage points can be kept
// in one node"; this package is that modification, with the paper's
// tree as the special case v = 2 (and the bucketed m-way vp-tree with
// PATH filtering as v = 1).
//
// Each node chooses v vantage points in sequence — the first at random,
// each next one the point farthest from its predecessor — and applies
// them as a cascade: vantage 1 splits the node's points into m
// equal-cardinality shells, vantage 2 splits every shell into m, and so
// on, giving fanout m^v with only v vantage points. As in the mvp-tree,
// every vantage distance computed during construction is retained for
// leaf points up to the PATH cap p and reused as a query-time filter.
//
// Queries (Range, KNN and their variants) read only immutable state and
// are safe to run concurrently against one instance; the shared
// distance counter is atomic.
package gmvp

import (
	"errors"
	"math"
	"math/rand/v2"

	"mvptree/internal/build"
	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
)

// Build is the shared construction options (Workers, Seed) every index
// package embeds; see build.Options.
type Build = build.Options

// Options configure construction.
type Options struct {
	// Build holds the shared construction knobs (Workers, Seed); the
	// tree built is identical for every worker count.
	Build
	// Vantages is v, the number of vantage points per node; fanout is
	// Partitions^Vantages. Default 2 (the paper's mvp-tree).
	Vantages int
	// Partitions is m, the partitions per vantage point. Default 3.
	Partitions int
	// LeafCapacity is the maximum number of data points in a leaf in
	// addition to the leaf's vantage points. Default 80.
	LeafCapacity int
	// PathLength is p, the retained ancestor-distance prefix per leaf
	// point; -1 requests a genuine zero (0 means default). Default 5.
	PathLength int
}

func (o *Options) setDefaults() {
	if o.Vantages == 0 {
		o.Vantages = 2
	}
	if o.Partitions == 0 {
		o.Partitions = 3
	}
	if o.LeafCapacity == 0 {
		o.LeafCapacity = 80
	}
	switch {
	case o.PathLength == 0:
		o.PathLength = 5
	case o.PathLength < 0:
		o.PathLength = 0
	}
}

func (o *Options) validate() error {
	if err := o.Build.Validate("gmvp"); err != nil {
		return err
	}
	if o.Vantages < 1 {
		return errors.New("gmvp: Vantages must be at least 1")
	}
	if o.Partitions < 2 {
		return errors.New("gmvp: Partitions must be at least 2")
	}
	if o.LeafCapacity < 1 {
		return errors.New("gmvp: LeafCapacity must be at least 1")
	}
	return nil
}

// Tree is a generalized multi-vantage-point tree. The embedded
// obs.Hooks let callers attach an Observer and/or Tracer; with neither
// attached the query paths pay only nil checks.
type Tree[T any] struct {
	obs.Hooks
	root       *node[T]
	dist       *metric.Counter[T]
	size       int
	v, m, k    int
	p          int
	buildStats build.Stats
}

var _ index.StatsIndex[int] = (*Tree[int])(nil)

// node is a leaf or an internal node. Internal nodes hold exactly v
// vantage points and a cascade of splits; leaves hold up to v vantage
// points and a bucket of items with their stored distances.
type node[T any] struct {
	vantages []T

	// Internal node: the cascade. top partitions by vantages[0]; its
	// sub-splits partition by vantages[1], and so on; the final level
	// holds child nodes.
	top *split[T]

	// Leaf node: dists[j][i] = d(items[i], vantages[j]); paths[i] is
	// the retained ancestor PATH prefix.
	items []T
	dists [][]float64
	paths [][]float64
}

func (n *node[T]) isLeaf() bool { return n.top == nil }

// split partitions one region of a node's points by the distance to
// vantages[level]. Region g covers the closed interval
// [cutoffs[g-1], cutoffs[g]] (0 and +Inf at the ends). Exactly one of
// subs (next cascade level) or children (actual subtrees) is non-nil.
type split[T any] struct {
	level    int
	cutoffs  []float64
	subs     []*split[T]
	children []*node[T]
}

// entry carries an item and its accumulating PATH during construction.
type entry[T any] struct {
	item T
	path []float64
}

// New builds a generalized mvp-tree over items using the counted metric
// dist.
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
	t := &Tree[T]{
		dist: dist,
		size: len(items),
		v:    opts.Vantages,
		m:    opts.Partitions,
		k:    opts.LeafCapacity,
		p:    opts.PathLength,
	}
	entries := make([]entry[T], len(items))
	for i, it := range items {
		entries[i] = entry[T]{item: it}
	}
	b := build.Start(dist, opts.Build)
	t.root = t.build(b, entries, build.NewRNG(opts.Seed, 0x676d7670), 0)
	t.buildStats = b.Finish()
	return t, t.buildStats, nil
}

// Len reports the number of indexed items.
func (t *Tree[T]) Len() int { return t.size }

// Counter returns the counted metric the tree measures distances with.
func (t *Tree[T]) Counter() *metric.Counter[T] { return t.dist }

// DistanceCount reports the cumulative distance computations on the
// tree's counter (build + queries), the paper's cost metric.
func (t *Tree[T]) DistanceCount() int64 { return t.dist.Count() }

// BuildCost reports construction distance computations.
func (t *Tree[T]) BuildCost() int64 { return t.buildStats.Distances }

// BuildStats reports the full construction report.
func (t *Tree[T]) BuildStats() build.Stats { return t.buildStats }

// Vantages, Partitions, LeafCapacity and PathLength report the
// parameters in effect.
func (t *Tree[T]) Vantages() int     { return t.v }
func (t *Tree[T]) Partitions() int   { return t.m }
func (t *Tree[T]) LeafCapacity() int { return t.k }
func (t *Tree[T]) PathLength() int   { return t.p }

// build constructs the subtree over entries. src is the splittable RNG
// fixed by this subtree's position, so the tree is identical for every
// worker count.
func (t *Tree[T]) build(b *build.Builder[T], entries []entry[T], src build.RNG, depth int) *node[T] {
	if len(entries) == 0 {
		return nil
	}
	b.Node(depth)
	if len(entries) <= t.k+t.v {
		return t.buildLeaf(b, entries, src.Rand())
	}
	return t.buildInternal(b, entries, src, depth)
}

// chooseVantages picks up to v vantage points from entries: the first
// uniformly at random, each subsequent one the remaining point farthest
// from its predecessor. It returns the vantage items, the per-vantage
// distance slices over the surviving entries, and the surviving entries
// themselves (with PATH prefixes extended, capped at p).
func (t *Tree[T]) chooseVantages(b *build.Builder[T], entries []entry[T], rng *rand.Rand, v int) (vantages []T, dists [][]float64, rest []entry[T]) {
	rest = entries
	for j := 0; j < v && len(rest) > 0; j++ {
		var pick int
		if j == 0 {
			pick = rng.IntN(len(rest))
		} else {
			prev := dists[j-1] // distances to the previous vantage
			pick = 0
			for i := range prev {
				if prev[i] > prev[pick] {
					pick = i
				}
			}
		}
		// Move the picked point to the end, mirroring the swap in every
		// earlier vantage's distance slice, then truncate it away.
		last := len(rest) - 1
		rest[pick], rest[last] = rest[last], rest[pick]
		for jj := range dists {
			dists[jj][pick], dists[jj][last] = dists[jj][last], dists[jj][pick]
			dists[jj] = dists[jj][:last]
		}
		vantage := rest[last].item
		vantages = append(vantages, vantage)
		rest = rest[:last]

		ds := make([]float64, len(rest))
		b.Measure(vantage, func(i int) T { return rest[i].item }, ds)
		for i := range rest {
			if len(rest[i].path) < t.p {
				rest[i].path = append(rest[i].path, ds[i])
			}
		}
		dists = append(dists, ds)
	}
	return vantages, dists, rest
}

func (t *Tree[T]) buildLeaf(b *build.Builder[T], entries []entry[T], rng *rand.Rand) *node[T] {
	n := &node[T]{}
	vantages, dists, rest := t.chooseVantages(b, entries, rng, t.v)
	n.vantages = vantages
	if len(rest) == 0 {
		return n
	}
	n.items = make([]T, len(rest))
	n.paths = make([][]float64, len(rest))
	for i := range rest {
		n.items[i] = rest[i].item
		n.paths[i] = rest[i].path
	}
	// Note: chooseVantages already appended the leaf vantage distances
	// to each item's PATH (up to p); the leaf additionally stores them
	// all exactly, like the paper's D1/D2 arrays.
	n.dists = dists
	return n
}

func (t *Tree[T]) buildInternal(b *build.Builder[T], entries []entry[T], src build.RNG, depth int) *node[T] {
	n := &node[T]{}
	vantages, dists, rest := t.chooseVantages(b, entries, src.Rand(), t.v)
	n.vantages = vantages
	keys := make([]build.Key, len(rest))
	for i := range keys {
		keys[i].ID = int32(i)
	}
	// The cascade partitions without any distance computations; child
	// subtrees are collected during the walk and then built through the
	// pool, each with an RNG derived from its cascade position.
	var tasks []childTask[T]
	n.top = t.buildSplit(rest, dists, keys, 0, &tasks)
	b.Fork(len(tasks), func(i int) {
		ct := tasks[i]
		ct.sp.children[ct.g] = t.build(b, ct.entries, src.Child(i), depth+1)
	})
	return n
}

// childTask is one child subtree to build: slot (sp, g) gets the tree
// over entries.
type childTask[T any] struct {
	sp      *split[T]
	g       int
	entries []entry[T]
}

// buildSplit partitions the region holding the points rest[keys[i].ID]
// by the distance slice dists[level], recursing down the cascade and
// finally into child subtrees. A key's ID is its point's position in
// rest, so equal distances go to regions in that order (build.SplitEqual)
// and a child's entries arrive in whatever order the split left them.
func (t *Tree[T]) buildSplit(rest []entry[T], dists [][]float64, keys []build.Key, level int, tasks *[]childTask[T]) *split[T] {
	for i := range keys {
		keys[i].D = dists[level][keys[i].ID]
	}
	groups := min(t.m, len(keys))
	sp := &split[T]{level: level, cutoffs: make([]float64, groups-1)}
	build.SplitEqual(keys, sp.cutoffs)
	last := level == len(dists)-1
	if !last {
		sp.subs = make([]*split[T], groups)
	} else {
		sp.children = make([]*node[T], groups)
	}
	for g := 0; g < groups; g++ {
		lo, hi := build.GroupBounds(len(keys), groups, g)
		region := keys[lo:hi]
		if !last {
			sp.subs[g] = t.buildSplit(rest, dists, region, level+1, tasks)
			continue
		}
		child := make([]entry[T], len(region))
		for i, k := range region {
			child[i] = rest[k.ID]
		}
		*tasks = append(*tasks, childTask[T]{sp, g, child})
	}
	return sp
}

// shellBounds returns the closed interval of region g.
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

var _ index.Searcher[int] = (*Tree[int])(nil)

// Search is the tree's one query implementation (index.Searcher): one
// range traversal and one best-first kNN traversal, each threaded with
// the request's index.Approx (inert at zero options). Workers and Bound
// are ignored.
func (t *Tree[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		return t.knn(req.Point, req.K, req.Opts)
	}
	return t.rangeSearch(req.Point, req.Radius, req.Opts)
}

// Range returns every indexed item within distance r of q. It is a
// wrapper over Search, so there is exactly one traversal implementation.
func (t *Tree[T]) Range(q T, r float64) []T {
	return t.Search(index.RangeQuery(q, r)).Items
}

// RangeWithStats is Range plus the per-query filtering breakdown shared
// with the mvp-tree: FilteredByD counts candidates excluded by a stored
// leaf-vantage distance, FilteredByPath those additionally excluded by
// a retained PATH entry.
func (t *Tree[T]) RangeWithStats(q T, r float64) ([]T, SearchStats) {
	res := t.Search(index.RangeQuery(q, r))
	return res.Items, res.Stats
}

func (t *Tree[T]) rangeSearch(q T, r float64, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindRange)
	var s SearchStats
	if r < 0 || t.root == nil {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	a := index.StartApprox(o)
	var out []T
	qpath := make([]float64, 0, t.p)
	t.rangeNode(t.root, q, r, a.Shrink(r), qpath, &a, &out, &s)
	a.Finish(&s)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Items: out, Stats: s}
}

// rangeNode descends with two radii: r decides membership, rp = r/(1+ε)
// (== r when exact) decides every prune and filter.
func (t *Tree[T]) rangeNode(n *node[T], q T, r, rp float64, qpath []float64, a *index.Approx, out *[]T, s *SearchStats) {
	if n == nil || a.Stop() {
		return
	}
	s.NodesVisited++
	t.TraceNode(n.isLeaf())
	dq := make([]float64, len(n.vantages))
	for j, v := range n.vantages {
		if !a.Pay(1) {
			return
		}
		dq[j] = t.dist.Distance(q, v)
		s.VantagePoints++
		t.TraceDistance(1)
		if dq[j] <= r {
			*out = append(*out, v)
		}
		if len(qpath) < t.p {
			qpath = append(qpath, dq[j])
		}
	}
	if n.isLeaf() {
		s.LeavesVisited++
	items:
		for i, it := range n.items {
			s.Candidates++
			for j := range n.dists {
				if d := n.dists[j][i]; d < dq[j]-rp || d > dq[j]+rp {
					s.FilteredByD++
					t.TracePrune(obs.FilterD, 1)
					continue items
				}
			}
			path := n.paths[i]
			for l := 0; l < len(path) && l < len(qpath); l++ {
				if path[l] < qpath[l]-rp || path[l] > qpath[l]+rp {
					s.FilteredByPath++
					t.TracePrune(obs.FilterPath, 1)
					continue items
				}
			}
			if !a.Pay(1) {
				s.Candidates-- // not considered: the budget stopped the scan first
				break
			}
			s.Computed++
			t.TraceDistance(1)
			// Membership only, so the kernel may abandon at r; vantage
			// distances stay exact (they feed qpath and the two-sided
			// D-filters above).
			if t.dist.DistanceUpTo(q, it, r) <= r {
				*out = append(*out, it)
			}
		}
		return
	}
	t.rangeSplit(n.top, q, r, rp, dq, qpath, a, out, s)
}

func (t *Tree[T]) rangeSplit(sp *split[T], q T, r, rp float64, dq, qpath []float64, a *index.Approx, out *[]T, s *SearchStats) {
	d := dq[sp.level]
	count := len(sp.cutoffs) + 1
	for g := 0; g < count; g++ {
		if a.Stop() {
			return
		}
		lo, hi := shellBounds(sp.cutoffs, g)
		if d+rp < lo || d-rp > hi {
			s.ShellsPruned++
			t.TracePrune(obs.FilterShell, 1)
			continue
		}
		if sp.subs != nil {
			t.rangeSplit(sp.subs[g], q, r, rp, dq, qpath, a, out, s)
		} else if sp.children[g] != nil {
			t.rangeNode(sp.children[g], q, r, rp, qpath, a, out, s)
		}
	}
}

// KNN returns the k nearest indexed items by best-first traversal. It
// is KNNWithStats without the stats (single traversal implementation).
func (t *Tree[T]) KNN(q T, k int) []index.Neighbor[T] {
	return t.knn(q, k, index.SearchOptions{}).Neighbors
}

// KNNWithStats is KNN plus the per-query filtering breakdown. Leaf
// attribution mirrors the mvp-tree: the stored leaf-vantage distances
// get first credit (FilteredByD); a PATH entry gets credit only when it
// tightens the bound past the acceptance threshold on its own
// (FilteredByPath). The accept/reject outcome is identical either way —
// the final bound is the same maximum.
// (Not through Search, which reads k <= 0 as a range request.)
func (t *Tree[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], SearchStats) {
	res := t.knn(q, k, index.SearchOptions{})
	return res.Neighbors, res.Stats
}

// knn is the one best-first kNN traversal: subtrees and leaf candidates
// are discarded once their lower bound reaches τ/(1+ε) while the heap
// keeps accepting against the full τ, the budget is debited before
// every computation, and patience stops the search after the
// configured number of consecutive leaves that fail to tighten τ.
func (t *Tree[T]) knn(q T, k int, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindKNN)
	var s SearchStats
	if k <= 0 || t.root == nil {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	a := index.StartApprox(o)
	best := heapx.NewKBest[T](k, t.Len())
	var queue heapx.NodeQueue[knnPending[T]]
	queue.PushNode(knnPending[T]{t.root, make([]float64, 0, t.p)}, 0)
search:
	for !a.Stop() {
		pn, bound, ok := queue.PopNode()
		if !ok {
			break
		}
		tau := best.Threshold()
		if bound >= a.Shrink(tau) {
			break
		}
		n, qpath := pn.n, pn.qpath
		s.NodesVisited++
		t.TraceNode(n.isLeaf())
		dq := make([]float64, len(n.vantages))
		for j, v := range n.vantages {
			if !a.Pay(1) {
				break search
			}
			dq[j] = t.dist.Distance(q, v)
			s.VantagePoints++
			t.TraceDistance(1)
			best.Push(v, dq[j])
		}
		if len(qpath) < t.p {
			ext := make([]float64, len(qpath), t.p)
			copy(ext, qpath)
			for _, d := range dq {
				if len(ext) < t.p {
					ext = append(ext, d)
				}
			}
			qpath = ext
		}
		if n.isLeaf() {
			s.LeavesVisited++
			for i, it := range n.items {
				s.Candidates++
				lbD := 0.0
				for j := range n.dists {
					if b := abs(dq[j] - n.dists[j][i]); b > lbD {
						lbD = b
					}
				}
				tauP := a.Shrink(best.Threshold())
				if lbD >= tauP {
					s.FilteredByD++
					t.TracePrune(obs.FilterD, 1)
					continue
				}
				lb := lbD
				path := n.paths[i]
				for l := 0; l < len(path) && l < len(qpath); l++ {
					if b := abs(qpath[l] - path[l]); b > lb {
						lb = b
					}
				}
				if lb >= tauP {
					s.FilteredByPath++
					t.TracePrune(obs.FilterPath, 1)
					continue
				}
				if !a.Pay(1) {
					s.Candidates-- // not considered: the budget stopped the scan first
					break
				}
				s.Computed++
				t.TraceDistance(1)
				// Abandon at τ; vantage distances stay exact (qpath and
				// two-sided D-filters).
				best.Push(it, t.dist.DistanceUpTo(q, it, best.Threshold()))
			}
			a.LeafDone(best.Threshold() < tau, best.Full())
			continue
		}
		t.knnSplit(n.top, dq, qpath, bound, a.Shrink(best.Threshold()), &queue, &s)
	}
	out := best.Sorted()
	a.Finish(&s)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Neighbors: out, Stats: s}
}

// knnPending is one enqueued subtree in the best-first kNN traversal.
type knnPending[T any] struct {
	n     *node[T]
	qpath []float64
}

// knnSplit walks a cascade accumulating interval-gap lower bounds and
// enqueues surviving child nodes. tauP is the prune threshold τ/(1+ε);
// nothing is pushed onto the heap during the walk, so it is fixed.
func (t *Tree[T]) knnSplit(sp *split[T], dq, qpath []float64, bound, tauP float64,
	queue *heapx.NodeQueue[knnPending[T]], s *SearchStats) {
	d := dq[sp.level]
	count := len(sp.cutoffs) + 1
	for g := 0; g < count; g++ {
		lo, hi := shellBounds(sp.cutoffs, g)
		lb := bound
		switch {
		case d < lo:
			if gap := lo - d; gap > lb {
				lb = gap
			}
		case d > hi:
			if gap := d - hi; gap > lb {
				lb = gap
			}
		}
		if lb >= tauP {
			s.ShellsPruned++
			t.TracePrune(obs.FilterShell, 1)
			continue
		}
		if sp.subs != nil {
			t.knnSplit(sp.subs[g], dq, qpath, lb, tauP, queue, s)
		} else if sp.children[g] != nil {
			queue.PushNode(knnPending[T]{sp.children[g], qpath}, lb)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
