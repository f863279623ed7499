// Package balltree implements the second method of Burkhard & Keller
// [BK73], as the paper describes it in §3.2: "they partition the space
// into a number of sets of keys. For each set, they arbitrarily pick a
// center key, and calculate the radius which is the maximum distance
// between the center and any other key in the set. The keys in a set
// are partitioned into other sets recursively creating a multi-way
// tree. Each node in the tree keeps the centers and the radii for the
// sets of keys indexed below." It is the ancestor of ball trees and
// M-trees.
//
// The paper notes the partitioning strategy "was not discussed and was
// left as a parameter"; this implementation assigns each key to its
// closest center (centers picked greedily far apart, as in GNAT), which
// keeps radii small — the quantity the center/radius bound prunes on.
//
// Queries (Range, KNN and their variants) read only immutable state and
// are safe to run concurrently against one instance; the shared
// distance counter is atomic.
package balltree

import (
	"errors"

	"mvptree/internal/build"
	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
)

// SearchStats is the shared per-query filtering breakdown
// (index.SearchStats), aliased here so balltree call sites match the
// other index packages. Center distances count as VantagePoints and a
// set skipped by the center/radius bound as one ShellsPruned; with no
// stored leaf distances, Computed == Candidates.
type SearchStats = index.SearchStats

// Build is the shared construction options (Workers, Seed) every index
// package embeds; see build.Options.
type Build = build.Options

// Options configure construction.
type Options struct {
	// Build holds the shared construction knobs (Workers, Seed); the
	// tree built is identical for every worker count.
	Build
	// Fanout is the number of sets each node's keys are partitioned
	// into. Default 8.
	Fanout int
	// LeafCapacity is the maximum bucket size. Default 16.
	LeafCapacity int
}

// Tree is a center/radius multi-way tree over a fixed item set. The
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

// node holds, per child set, its center (a real data point, stored in
// the child), and the set's radius — the maximum distance from the
// center to any key of the set, exactly [BK73]'s invariant.
type node[T any] struct {
	centers  []T
	radii    []float64
	children []*node[T]
	leaf     bool
	items    []T
}

// New builds a tree over items using the counted metric dist.
func New[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], error) {
	t, _, err := NewWithStats(items, dist, opts)
	return t, err
}

// NewWithStats is New plus the shared construction report: distance
// computations, wall time, node count and depth (build.Stats).
func NewWithStats[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], build.Stats, error) {
	if opts.Fanout == 0 {
		opts.Fanout = 8
	}
	if opts.LeafCapacity == 0 {
		opts.LeafCapacity = 16
	}
	if err := opts.Build.Validate("balltree"); err != nil {
		return nil, build.Stats{}, err
	}
	if opts.Fanout < 2 {
		return nil, build.Stats{}, errors.New("balltree: Fanout must be at least 2")
	}
	if opts.LeafCapacity < 1 {
		return nil, build.Stats{}, errors.New("balltree: LeafCapacity must be at least 1")
	}
	t := &Tree[T]{dist: dist, size: len(items)}
	work := make([]T, len(items))
	copy(work, items)
	b := build.Start(dist, opts.Build)
	t.root = t.build(b, work, build.NewRNG(opts.Seed, 0x62616c6c), &opts, 0)
	t.buildStats = b.Finish()
	return t, t.buildStats, nil
}

// build consumes work. src is the splittable RNG fixed by this subtree's
// position, so the tree is identical for every worker count.
func (t *Tree[T]) build(b *build.Builder[T], work []T, src build.RNG, opts *Options, depth int) *node[T] {
	if len(work) == 0 {
		return nil
	}
	b.Node(depth)
	if len(work) <= opts.LeafCapacity || len(work) <= opts.Fanout {
		leaf := &node[T]{leaf: true, items: make([]T, len(work))}
		copy(leaf.items, work)
		return leaf
	}
	k := opts.Fanout
	// Greedy far-apart centers: random first, then repeatedly the key
	// farthest from all chosen centers. Each selection round is one
	// batched distance pass over all keys (the same computations as the
	// key-at-a-time loop, so the cost counter is unchanged).
	centerIdx := make([]int, 0, k)
	minDist := make([]float64, len(work))
	first := src.Rand().IntN(len(work))
	centerIdx = append(centerIdx, first)
	b.Measure(work[first], func(i int) T { return work[i] }, minDist)
	row := make([]float64, len(work))
	for len(centerIdx) < k {
		far := 0
		for i := range work {
			if minDist[i] > minDist[far] {
				far = i
			}
		}
		centerIdx = append(centerIdx, far)
		b.Measure(work[far], func(i int) T { return work[i] }, row)
		for i := range work {
			if row[i] < minDist[i] {
				minDist[i] = row[i]
			}
		}
	}
	isCenter := make(map[int]bool, k)
	n := &node[T]{centers: make([]T, k), radii: make([]float64, k)}
	for j, ci := range centerIdx {
		n.centers[j] = work[ci]
		isCenter[ci] = true
	}
	// Assign each remaining key to its closest center and track radii,
	// batched one center at a time.
	rest := make([]T, 0, len(work)-k)
	for i, it := range work {
		if !isCenter[i] {
			rest = append(rest, it)
		}
	}
	dmat := make([][]float64, k) // dmat[j][i] = d(rest[i], centers[j])
	for j := 0; j < k; j++ {
		dmat[j] = make([]float64, len(rest))
		b.Measure(n.centers[j], func(i int) T { return rest[i] }, dmat[j])
	}
	sets := make([][]T, k)
	for i, it := range rest {
		bestJ, bestD := 0, 0.0
		for j := 0; j < k; j++ {
			if d := dmat[j][i]; j == 0 || d < bestD {
				bestJ, bestD = j, d
			}
		}
		sets[bestJ] = append(sets[bestJ], it)
		if bestD > n.radii[bestJ] {
			n.radii[bestJ] = bestD
		}
	}
	n.children = make([]*node[T], k)
	b.Fork(k, func(j int) {
		n.children[j] = t.build(b, sets[j], src.Child(j), opts, depth+1)
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

// BuildCost reports construction distance computations.
func (t *Tree[T]) BuildCost() int64 { return t.buildStats.Distances }

// BuildStats reports the full construction report.
func (t *Tree[T]) BuildStats() build.Stats { return t.buildStats }

var _ index.Searcher[int] = (*Tree[int])(nil)

// Search is the tree's one query implementation (index.Searcher): one
// range traversal and one best-first kNN traversal, each threaded with
// the request's index.Approx (inert at zero options). Bound is ignored.
func (t *Tree[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		return t.knn(req.Point, req.K, req.Opts)
	}
	return t.rangeSearch(req.Point, req.Radius, req.Opts)
}

// Range returns every indexed item within distance r of q. A set with
// center c and radius ρ is skipped when d(q,c) − ρ > r: by the triangle
// inequality every key x of the set has d(q,x) ≥ d(q,c) − d(c,x) ≥
// d(q,c) − ρ. It is a wrapper over Search, the one traversal
// implementation.
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

// rangeNode descends with two radii: r decides membership and bounds
// the kernels, rp = r/(1+ε) (== r when exact) decides every prune.
func (t *Tree[T]) rangeNode(n *node[T], q T, r, rp float64, a *index.Approx, out *[]T, s *SearchStats) {
	if n == nil || a.Stop() {
		return
	}
	s.NodesVisited++
	if n.leaf {
		s.LeavesVisited++
		for _, it := range n.items {
			s.Candidates++
			if !a.Pay(1) {
				s.Candidates-- // not considered: the budget stopped the scan first
				break
			}
			s.Computed++
			// Membership only, so the kernel may abandon at r.
			if t.dist.DistanceUpTo(q, it, r) <= r {
				*out = append(*out, it)
			}
		}
		return
	}
	for j, c := range n.centers {
		if !a.Pay(1) {
			return
		}
		// A center distance is used one-sidedly — membership and the
		// prune test d−ρ > rp ≤ r — so abandoning past r+ρ forces the
		// same prune the exact distance would.
		d := t.dist.DistanceUpTo(q, c, r+n.radii[j])
		s.VantagePoints++
		if d <= r {
			*out = append(*out, c)
		}
		if d-n.radii[j] <= rp {
			t.rangeNode(n.children[j], q, r, rp, a, out, s)
			if a.Stop() {
				return
			}
		} else if n.children[j] != nil {
			s.ShellsPruned++
		}
	}
}

// KNN returns the k nearest indexed items by best-first traversal on
// the lower bound max(0, d(q,c) − ρ). It is KNNWithStats without the
// stats (single traversal implementation).
func (t *Tree[T]) KNN(q T, k int) []index.Neighbor[T] {
	return t.knn(q, k, index.SearchOptions{}).Neighbors
}

// KNNWithStats is KNN plus the per-query breakdown (not through
// Search, which reads k <= 0 as a range request).
func (t *Tree[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], SearchStats) {
	res := t.knn(q, k, index.SearchOptions{})
	return res.Neighbors, res.Stats
}

// knn is the one best-first kNN traversal: a child ball and a candidate
// are discarded once their lower bound reaches τ/(1+ε) while the heap
// keeps accepting against the full τ, and the budget is debited before
// every computation.
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
search:
	for !a.Stop() {
		n, bound, ok := queue.PopNode()
		if !ok {
			break
		}
		if bound >= a.Shrink(best.Threshold()) {
			break
		}
		s.NodesVisited++
		if n.leaf {
			s.LeavesVisited++
			for _, it := range n.items {
				s.Candidates++
				if !a.Pay(1) {
					s.Candidates-- // not considered: the budget stopped the scan first
					break
				}
				s.Computed++
				// Push ignores anything ≥ the k-th best: abandon at τ.
				best.Push(it, t.dist.DistanceUpTo(q, it, best.Threshold()))
			}
			continue
		}
		for j, c := range n.centers {
			if !a.Pay(1) {
				break search
			}
			// One-sided use (τ in place of r): abandoning past τ+ρ
			// rejects the center and prunes the child either way.
			d := t.dist.DistanceUpTo(q, c, best.Threshold()+n.radii[j])
			best.Push(c, d)
			s.VantagePoints++
			if n.children[j] == nil {
				continue
			}
			lb := d - n.radii[j]
			if lb < bound {
				lb = bound
			}
			if lb < a.Shrink(best.Threshold()) {
				queue.PushNode(n.children[j], lb)
			} else {
				s.ShellsPruned++
			}
		}
	}
	out := best.Sorted()
	a.Finish(&s)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Neighbors: out, Stats: s}
}
