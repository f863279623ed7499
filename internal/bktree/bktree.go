// Package bktree implements the Burkhard–Keller tree [BK73], the first
// method the paper reviews (§3.2): a hierarchical multi-way
// decomposition for metrics that take discrete (integer) values, such as
// edit distance or Hamming distance.
//
// Each node holds one item; children are keyed by the integer distance
// from the node's item, so all keys at distance d from the node's item
// live under child d. Range search with radius r at a node whose item is
// at distance d from the query needs only the children keyed d−r … d+r,
// by the triangle inequality.
//
// Unlike the other structures in this repository, the BK-tree is
// naturally incremental: Insert is exposed alongside bulk construction.
// Bulk construction groups items by their distance to the subtree root
// in one batched pass per node — the resulting tree, and the number of
// distance computations, are exactly those of inserting the items in
// order, but sibling subtrees can be built in parallel.
//
// Queries are safe to run concurrently against one tree, but Insert
// mutates nodes and must be serialized against queries externally.
package bktree

import (
	"errors"
	"math"
	"slices"

	"mvptree/internal/build"
	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
)

// SearchStats is the shared per-query filtering breakdown
// (index.SearchStats), aliased here so bktree call sites match the
// other index packages. Every BK-tree node holds one data item whose
// query distance is always computed, so Candidates == Computed counts
// visited nodes, VantagePoints stays zero, and ShellsPruned counts
// children outside the d±r key window.
type SearchStats = index.SearchStats

// Build is the shared construction options (Workers, Seed) every index
// package embeds; see build.Options.
type Build = build.Options

// Options configure bulk construction. The BK-tree has no structural
// parameters (its shape is fixed by the data and insertion order); only
// the shared construction knobs apply. Seed is accepted for uniformity
// but unused — BK-tree construction involves no random choices.
type Options struct {
	Build
}

// Tree is a Burkhard–Keller tree over items under a discrete metric.
// The embedded obs.Hooks let callers attach an Observer and/or Tracer;
// with neither attached the query paths pay only nil checks.
type Tree[T any] struct {
	obs.Hooks
	root       *node[T]
	dist       *metric.Counter[T]
	size       int
	buildStats build.Stats
}

var _ index.StatsIndex[string] = (*Tree[string])(nil)

type node[T any] struct {
	item T
	// keys (ascending) and kids are parallel: kids[i] roots every item at
	// integer distance keys[i] from item. Both are nil on a leaf. Every
	// traversal walks them in ascending key order, so result order and
	// kNN queue order are the same run to run.
	keys []int
	kids []*node[T]
}

func (n *node[T]) isLeaf() bool { return n.kids == nil }

// New builds a BK-tree equivalent to inserting items in order. The
// metric must return non-negative integer values; New returns an error
// on the first non-integer distance it computes.
func New[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], error) {
	t, _, err := NewWithStats(items, dist, opts)
	return t, err
}

// NewWithStats is New plus the shared construction report: distance
// computations, wall time, node count and depth (build.Stats).
func NewWithStats[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], build.Stats, error) {
	if err := opts.Build.Validate("bktree"); err != nil {
		return nil, build.Stats{}, err
	}
	t := &Tree[T]{dist: dist, size: len(items)}
	b := build.Start(dist, opts.Build)
	var err error
	t.root, err = bulkBuild(b, items, 0)
	if err != nil {
		return nil, build.Stats{}, err
	}
	t.buildStats = b.Finish()
	return t, t.buildStats, nil
}

// bulkBuild constructs the subtree rooted at items[0] over all of
// items. Grouping the remaining items by their integer distance to the
// root, preserving order within each group, reproduces sequential
// insertion exactly: under ordered insertion every item passing through
// this node computes precisely its distance to the node's item, the
// first item of a distance group becomes that child's node item, and
// the rest descend into it in order.
func bulkBuild[T any](b *build.Builder[T], items []T, depth int) (*node[T], error) {
	if len(items) == 0 {
		return nil, nil
	}
	b.Node(depth)
	n := &node[T]{item: items[0]}
	rest := items[1:]
	if len(rest) == 0 {
		return n, nil
	}
	ds := make([]float64, len(rest))
	b.Measure(n.item, func(i int) T { return rest[i] }, ds)
	groups := make(map[int][]T)
	var keys []int
	for i, it := range rest {
		d := ds[i]
		di := int(d)
		if float64(di) != d || d < 0 {
			return nil, errors.New("bktree: metric returned a non-integer distance")
		}
		if _, ok := groups[di]; !ok {
			keys = append(keys, di)
		}
		groups[di] = append(groups[di], it)
	}
	slices.Sort(keys)
	kids := make([]*node[T], len(keys))
	errs := make([]error, len(keys))
	b.Fork(len(keys), func(gi int) {
		kids[gi], errs[gi] = bulkBuild(b, groups[keys[gi]], depth+1)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	n.keys, n.kids = keys, kids
	return n, nil
}

// Insert adds one item to the tree.
func (t *Tree[T]) Insert(item T) error {
	if t.root == nil {
		t.root = &node[T]{item: item}
		t.size++
		return nil
	}
	n := t.root
	for {
		d := t.dist.Distance(item, n.item)
		di := int(d)
		if float64(di) != d || d < 0 {
			return errors.New("bktree: metric returned a non-integer distance")
		}
		// A duplicate (distance zero) goes under child 0 so it is still
		// retrievable; a chain of identical items forms.
		at, found := slices.BinarySearch(n.keys, di)
		if !found {
			n.keys = slices.Insert(n.keys, at, di)
			n.kids = slices.Insert(n.kids, at, &node[T]{item: item})
			t.size++
			return nil
		}
		n = n.kids[at]
	}
}

// Len reports the number of indexed items.
func (t *Tree[T]) Len() int { return t.size }

// Counter returns the counted metric the tree measures distances with.
func (t *Tree[T]) Counter() *metric.Counter[T] { return t.dist }

// DistanceCount reports the cumulative distance computations on the
// tree's counter (build + inserts + queries), the paper's cost metric.
func (t *Tree[T]) DistanceCount() int64 { return t.dist.Count() }

// BuildCost reports the number of distance computations made during
// bulk construction (zero for a tree grown purely by Insert).
func (t *Tree[T]) BuildCost() int64 { return t.buildStats.Distances }

// BuildStats reports the full bulk-construction report.
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
	if r < 0 || t.root == nil {
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
// (== r when exact) positions the child key window. A node is entered
// only once its one distance is paid for.
func (t *Tree[T]) rangeNode(n *node[T], q T, r, rp float64, a *index.Approx, out *[]T, s *SearchStats) {
	if a.Stop() || !a.Pay(1) {
		return
	}
	leaf := n.isLeaf()
	s.NodesVisited++
	t.TraceNode(leaf)
	s.Candidates++
	s.Computed++
	t.TraceDistance(1)
	if leaf {
		s.LeavesVisited++
		// Membership only: the kernel may abandon at r.
		if t.dist.DistanceUpTo(q, n.item, r) <= r {
			*out = append(*out, n.item)
		}
		return
	}
	// An internal node's distance positions the child key window
	// [⌈d−rp⌉, ⌊d+rp⌋] — a two-sided use an understated distance would
	// corrupt — so it stays exact.
	d := t.dist.Distance(q, n.item)
	if d <= r {
		*out = append(*out, n.item)
	}
	lo := int(math.Ceil(d - rp))
	hi := int(math.Floor(d + rp))
	for i, c := range n.kids {
		if key := n.keys[i]; key >= lo && key <= hi {
			t.rangeNode(c, q, r, rp, a, out, s)
			if a.Stop() {
				return
			}
		} else {
			s.ShellsPruned++
			t.TracePrune(obs.FilterShell, 1)
		}
	}
}

// KNN returns the k nearest indexed items by best-first traversal: a
// child keyed key under a node at distance d from the query has lower
// bound |d − key|. It is KNNWithStats without the stats (single
// traversal implementation).
func (t *Tree[T]) KNN(q T, k int) []index.Neighbor[T] {
	return t.knn(q, k, index.SearchOptions{}).Neighbors
}

// KNNWithStats is KNN plus the per-query breakdown (not through
// Search, which reads k <= 0 as a range request).
func (t *Tree[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], SearchStats) {
	res := t.knn(q, k, index.SearchOptions{})
	return res.Neighbors, res.Stats
}

// knn is the one best-first kNN traversal: a child is discarded once
// its lower bound |d − key| reaches τ/(1+ε) while the heap keeps
// accepting against the full τ, the budget is debited before every
// computation, and patience stops the search after the configured
// number of consecutive non-improving leaves (for the bk-tree, nodes
// whose push failed to tighten τ).
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
		tauP := a.Shrink(tau)
		if bound >= tauP {
			break
		}
		if !a.Pay(1) {
			break
		}
		leaf := n.isLeaf()
		s.NodesVisited++
		t.TraceNode(leaf)
		if leaf {
			s.LeavesVisited++
		}
		s.Candidates++
		s.Computed++
		t.TraceDistance(1)
		var d float64
		if leaf {
			// Membership only ⇒ abandon at τ; internal distances feed
			// the two-sided |d − key| child bounds and stay exact.
			d = t.dist.DistanceUpTo(q, n.item, best.Threshold())
		} else {
			d = t.dist.Distance(q, n.item)
		}
		best.Push(n.item, d)
		if leaf {
			a.LeafDone(best.Threshold() < tau, best.Full())
			continue
		}
		tauP = a.Shrink(best.Threshold())
		for i, c := range n.kids {
			lb := math.Abs(d - float64(n.keys[i]))
			if lb < bound {
				lb = bound
			}
			if lb < tauP {
				queue.PushNode(c, lb)
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
