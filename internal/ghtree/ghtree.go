// Package ghtree implements the generalized hyperplane tree of Uhlmann
// [Uhl91], the second structure introduced alongside the vp-tree and
// reviewed by the paper in §3.2.
//
// Each internal node holds two pivot points; the remaining points are
// split by which pivot they are closer to (a generalized hyperplane
// rather than a spherical cut). A subtree can be pruned when the query
// ball cannot cross the hyperplane: if d(q,p1) − d(q,p2) > 2r, no point
// closer to p1 than to p2 can be within r of q.
//
// Queries (Range, KNN and their variants) read only immutable state and
// are safe to run concurrently against one instance; the shared
// distance counter is atomic.
package ghtree

import (
	"errors"

	"mvptree/internal/build"
	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
)

// SearchStats is the shared per-query filtering breakdown
// (index.SearchStats), aliased here so ghtree call sites match the
// other index packages. Pivot distances count as VantagePoints and a
// skipped subtree as one ShellsPruned; with no stored leaf distances,
// FilteredByD/FilteredByPath stay zero and Computed == Candidates.
type SearchStats = index.SearchStats

// Build is the shared construction options (Workers, Seed) every index
// package embeds; see build.Options.
type Build = build.Options

// Options configure construction of a gh-tree.
type Options struct {
	// Build holds the shared construction knobs (Workers, Seed); the
	// tree built is identical for every worker count.
	Build
	// LeafCapacity is the maximum number of points in a leaf bucket.
	// Default 1.
	LeafCapacity int
}

// Tree is a generalized hyperplane tree over a fixed item set. The
// embedded obs.Hooks let callers attach an Observer and/or Tracer; with
// neither attached the query paths pay only nil checks.
type Tree[T any] struct {
	obs.Hooks
	root       *node[T]
	dist       *metric.Counter[T]
	size       int
	buildStats build.Stats
}

var _ index.StatsIndex[int] = (*Tree[int])(nil)

type node[T any] struct {
	p1, p2      T
	hasP2       bool
	left, right *node[T] // closer to p1 / closer to p2
	leaf        bool
	items       []T
}

// New builds a gh-tree over items using the counted metric dist.
func New[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], error) {
	t, _, err := NewWithStats(items, dist, opts)
	return t, err
}

// NewWithStats is New plus the shared construction report: distance
// computations, wall time, node count and depth (build.Stats).
func NewWithStats[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], build.Stats, error) {
	if opts.LeafCapacity == 0 {
		opts.LeafCapacity = 1
	}
	if err := opts.Build.Validate("ghtree"); err != nil {
		return nil, build.Stats{}, err
	}
	if opts.LeafCapacity < 1 {
		return nil, build.Stats{}, errors.New("ghtree: LeafCapacity must be at least 1")
	}
	t := &Tree[T]{dist: dist, size: len(items)}
	work := make([]T, len(items))
	copy(work, items)
	b := build.Start(dist, opts.Build)
	t.root = t.build(b, work, build.NewRNG(opts.Seed, 0x676874726565), opts.LeafCapacity, 0)
	t.buildStats = b.Finish()
	return t, t.buildStats, nil
}

// build consumes work. src is the splittable RNG fixed by this subtree's
// position, so the tree is identical for every worker count.
func (t *Tree[T]) build(b *build.Builder[T], work []T, src build.RNG, leafCap, depth int) *node[T] {
	if len(work) == 0 {
		return nil
	}
	b.Node(depth)
	if len(work) <= leafCap {
		leaf := &node[T]{leaf: true, items: make([]T, len(work))}
		copy(leaf.items, work)
		return leaf
	}
	n := &node[T]{}
	// First pivot random; second pivot the farthest point from the
	// first, which tends to produce well-separated hyperplanes.
	i1 := src.Rand().IntN(len(work))
	work[i1], work[len(work)-1] = work[len(work)-1], work[i1]
	n.p1 = work[len(work)-1]
	rest := work[:len(work)-1]
	if len(rest) == 0 {
		return n
	}
	d1 := make([]float64, len(rest))
	b.Measure(n.p1, func(i int) T { return rest[i] }, d1)
	far := 0
	for i := range rest {
		if d1[i] > d1[far] {
			far = i
		}
	}
	last := len(rest) - 1
	rest[far], rest[last] = rest[last], rest[far]
	d1[far], d1[last] = d1[last], d1[far]
	n.p2, n.hasP2 = rest[last], true
	rest, d1 = rest[:last], d1[:last]

	d2 := make([]float64, len(rest))
	b.Measure(n.p2, func(i int) T { return rest[i] }, d2)
	var left, right []T
	for i, it := range rest {
		if d1[i] <= d2[i] {
			left = append(left, it)
		} else {
			right = append(right, it)
		}
	}
	b.Fork(2, func(side int) {
		if side == 0 {
			n.left = t.build(b, left, src.Child(0), leafCap, depth+1)
		} else {
			n.right = t.build(b, right, src.Child(1), leafCap, depth+1)
		}
	})
	return n
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

// BuildStats reports the full construction report.
func (t *Tree[T]) BuildStats() build.Stats { return t.buildStats }

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

// RangeWithStats is Range plus the per-query breakdown.
func (t *Tree[T]) RangeWithStats(q T, r float64) ([]T, SearchStats) {
	res := t.Search(index.RangeQuery(q, r))
	return res.Items, res.Stats
}

func (t *Tree[T]) rangeSearch(q T, r float64, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindRange)
	var s SearchStats
	if r < 0 {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	a := index.StartApprox(o)
	var out []T
	t.rangeNode(t.root, q, r, a.Shrink(r), &a, &out, &s)
	a.Finish(&s)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Items: out, Stats: s}
}

// rangeNode descends with two radii: r decides membership, rp = r/(1+ε)
// (== r when exact) decides every prune.
func (t *Tree[T]) rangeNode(n *node[T], q T, r, rp float64, a *index.Approx, out *[]T, s *SearchStats) {
	if n == nil || a.Stop() {
		return
	}
	s.NodesVisited++
	t.TraceNode(n.leaf)
	if n.leaf {
		s.LeavesVisited++
		for _, it := range n.items {
			s.Candidates++
			if !a.Pay(1) {
				s.Candidates-- // not considered: the budget stopped the scan first
				break
			}
			s.Computed++
			t.TraceDistance(1)
			// Membership only, so the kernel may abandon at r. The
			// pivot distances below stay exact: the hyperplane test
			// (d1−d2)/2 uses them two-sidedly.
			if t.dist.DistanceUpTo(q, it, r) <= r {
				*out = append(*out, it)
			}
		}
		return
	}
	if !a.Pay(1) {
		return
	}
	d1 := t.dist.Distance(q, n.p1)
	s.VantagePoints++
	t.TraceDistance(1)
	if d1 <= r {
		*out = append(*out, n.p1)
	}
	if !n.hasP2 || !a.Pay(1) {
		return
	}
	d2 := t.dist.Distance(q, n.p2)
	s.VantagePoints++
	t.TraceDistance(1)
	if d2 <= r {
		*out = append(*out, n.p2)
	}
	// Hyperplane pruning: points on the p1 side satisfy
	// d(x,p1) ≤ d(x,p2); the query ball reaches that side only if
	// (d1 − d2)/2 ≤ rp. Symmetrically for the p2 side.
	if (d1-d2)/2 <= rp {
		t.rangeNode(n.left, q, r, rp, a, out, s)
	} else if n.left != nil {
		s.ShellsPruned++
		t.TracePrune(obs.FilterShell, 1)
	}
	if (d2-d1)/2 <= rp {
		t.rangeNode(n.right, q, r, rp, a, out, s)
	} else if n.right != nil {
		s.ShellsPruned++
		t.TracePrune(obs.FilterShell, 1)
	}
}

// KNN returns the k nearest indexed items by best-first traversal using
// the hyperplane lower bound max(0, (dNear − dFar)/2). It is
// KNNWithStats without the stats (single traversal implementation).
func (t *Tree[T]) KNN(q T, k int) []index.Neighbor[T] {
	return t.knn(q, k, index.SearchOptions{}).Neighbors
}

// KNNWithStats is KNN plus the per-query breakdown (not through
// Search, which reads k <= 0 as a range request).
func (t *Tree[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], SearchStats) {
	res := t.knn(q, k, index.SearchOptions{})
	return res.Neighbors, res.Stats
}

// knn is the one best-first kNN traversal: a side of the hyperplane and
// a candidate are discarded once their lower bound reaches τ/(1+ε)
// while the heap keeps accepting against the full τ, the budget is
// debited before every computation, and patience stops the search
// after the configured number of consecutive leaves that fail to
// tighten τ.
func (t *Tree[T]) knn(q T, k int, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindKNN)
	var s SearchStats
	if k <= 0 || t.root == nil {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	a := index.StartApprox(o)
	best := heapx.NewKBest[T](k, t.Len())
	var queue heapx.NodeQueue[*node[T]]
	queue.PushNode(t.root, 0)
	for !a.Stop() {
		n, bound, ok := queue.PopNode()
		if !ok {
			break
		}
		tau := best.Threshold()
		if bound >= a.Shrink(tau) {
			break
		}
		s.NodesVisited++
		t.TraceNode(n.leaf)
		if n.leaf {
			s.LeavesVisited++
			for _, it := range n.items {
				s.Candidates++
				if !a.Pay(1) {
					s.Candidates-- // not considered: the budget stopped the scan first
					break
				}
				s.Computed++
				t.TraceDistance(1)
				// Push ignores anything ≥ the k-th best, so the kernel
				// may abandon at τ; pivot distances stay exact (the
				// hyperplane bound uses them two-sidedly).
				best.Push(it, t.dist.DistanceUpTo(q, it, best.Threshold()))
			}
			a.LeafDone(best.Threshold() < tau, best.Full())
			continue
		}
		if !a.Pay(1) {
			break
		}
		d1 := t.dist.Distance(q, n.p1)
		best.Push(n.p1, d1)
		s.VantagePoints++
		t.TraceDistance(1)
		if !n.hasP2 {
			continue
		}
		if !a.Pay(1) {
			break
		}
		d2 := t.dist.Distance(q, n.p2)
		best.Push(n.p2, d2)
		s.VantagePoints++
		t.TraceDistance(1)
		tauP := a.Shrink(best.Threshold())
		if n.left != nil {
			lb := max(bound, (d1-d2)/2)
			if lb < tauP {
				queue.PushNode(n.left, lb)
			} else {
				s.ShellsPruned++
				t.TracePrune(obs.FilterShell, 1)
			}
		}
		if n.right != nil {
			lb := max(bound, (d2-d1)/2)
			if lb < tauP {
				queue.PushNode(n.right, lb)
			} else {
				s.ShellsPruned++
				t.TracePrune(obs.FilterShell, 1)
			}
		}
	}
	out := best.Sorted()
	a.Finish(&s)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Neighbors: out, Stats: s}
}
