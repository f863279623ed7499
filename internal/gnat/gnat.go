// Package gnat implements Brin's Geometric Near-neighbor Access Tree
// [Bri95], reviewed by the paper in §3.2 as the closest contemporary
// competitor to vp-trees.
//
// Each node holds k split points chosen to be far apart; every remaining
// point joins the dataset of its closest split point. The node records,
// for every (split point i, dataset j) pair, the minimum and maximum
// distance from split point i to the points of dataset j ("ranges").
// Search computes distances from the query to split points one at a time
// and discards any dataset whose range around any split point cannot
// intersect the query ball, often eliminating datasets without ever
// touching their split point.
//
// Queries (Range, KNN and their variants) read only immutable state and
// are safe to run concurrently against one instance; the shared
// distance counter is atomic.
package gnat

import (
	"errors"

	"mvptree/internal/build"
	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
)

// SearchStats is the shared per-query filtering breakdown
// (index.SearchStats), aliased here so gnat call sites match the other
// index packages. GNAT fills VantagePoints with split-point distances
// and ShellsPruned with datasets discarded through the stored ranges;
// having no stored leaf distances, FilteredByD/FilteredByPath stay zero
// and Computed == Candidates.
type SearchStats = index.SearchStats

// Build is the shared construction options (Workers, Seed) every index
// package embeds; see build.Options.
type Build = build.Options

// Options configure construction of a GNAT.
type Options struct {
	// Build holds the shared construction knobs (Workers, Seed); the
	// tree built is identical for every worker count.
	Build
	// Degree is the number of split points per node, k in [Bri95].
	// Default 8.
	Degree int
	// LeafCapacity is the maximum number of points stored in a leaf
	// bucket. Default 16.
	LeafCapacity int
	// CandidateFactor controls split-point sampling: Degree ×
	// CandidateFactor random candidates are drawn and a greedy
	// max-min-distance subset of size Degree is kept, as in [Bri95].
	// Default 3.
	CandidateFactor int
	// Adaptive, when true, gives every child node a degree
	// proportional to its dataset's share of the parent's points,
	// clamped to [MinDegree, MaxDegree] — [Bri95]: "the number of
	// split points, k, is parametrized and is chosen to be a different
	// value for each data set depending on its cardinality".
	Adaptive bool
	// MinDegree and MaxDegree clamp adaptive degrees. Defaults 2 and
	// 4 × Degree.
	MinDegree, MaxDegree int
}

func (o *Options) setDefaults() {
	if o.Degree == 0 {
		o.Degree = 8
	}
	if o.LeafCapacity == 0 {
		o.LeafCapacity = 16
	}
	if o.CandidateFactor == 0 {
		o.CandidateFactor = 3
	}
	if o.MinDegree == 0 {
		o.MinDegree = 2
	}
	if o.MaxDegree == 0 {
		o.MaxDegree = 4 * o.Degree
	}
}

// Tree is a GNAT over a fixed item set. The embedded obs.Hooks let
// callers attach an Observer and/or Tracer; with neither attached the
// query paths pay only nil checks.
type Tree[T any] struct {
	obs.Hooks
	root       *node[T]
	dist       *metric.Counter[T]
	size       int
	buildStats build.Stats
}

var _ index.StatsIndex[int] = (*Tree[int])(nil)

type node[T any] struct {
	splits   []T
	lo, hi   [][]float64 // lo[i][j], hi[i][j]: range of d(splits[i], dataset j)
	children []*node[T]
	leaf     bool
	items    []T
}

// New builds a GNAT over items using the counted metric dist.
func New[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], error) {
	t, _, err := NewWithStats(items, dist, opts)
	return t, err
}

// NewWithStats is New plus the shared construction report: distance
// computations, wall time, node count and depth (build.Stats).
func NewWithStats[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], build.Stats, error) {
	opts.setDefaults()
	if err := opts.Build.Validate("gnat"); err != nil {
		return nil, build.Stats{}, err
	}
	if opts.Degree < 2 {
		return nil, build.Stats{}, errors.New("gnat: Degree must be at least 2")
	}
	if opts.LeafCapacity < 1 {
		return nil, build.Stats{}, errors.New("gnat: LeafCapacity must be at least 1")
	}
	if opts.CandidateFactor < 1 {
		return nil, build.Stats{}, errors.New("gnat: CandidateFactor must be at least 1")
	}
	if opts.Adaptive && (opts.MinDegree < 2 || opts.MaxDegree < opts.MinDegree) {
		return nil, build.Stats{}, errors.New("gnat: adaptive degree bounds must satisfy 2 <= MinDegree <= MaxDegree")
	}
	t := &Tree[T]{dist: dist, size: len(items)}
	work := make([]T, len(items))
	copy(work, items)
	b := build.Start(dist, opts.Build)
	t.root = t.build(b, work, build.NewRNG(opts.Seed, 0x676e6174), &opts, opts.Degree, 0)
	t.buildStats = b.Finish()
	return t, t.buildStats, nil
}

// build consumes work. src is the splittable RNG fixed by this subtree's
// position, so the tree is identical for every worker count.
func (t *Tree[T]) build(b *build.Builder[T], work []T, src build.RNG, opts *Options, degree, depth int) *node[T] {
	if len(work) == 0 {
		return nil
	}
	b.Node(depth)
	if len(work) <= opts.LeafCapacity || len(work) <= degree {
		leaf := &node[T]{leaf: true, items: make([]T, len(work))}
		copy(leaf.items, work)
		return leaf
	}
	k := degree
	splits := t.chooseSplits(b, work, k, src, opts.CandidateFactor)
	n := &node[T]{splits: make([]T, k)}
	inSplit := make(map[int]bool, k)
	for i, wi := range splits {
		n.splits[i] = work[wi]
		inSplit[wi] = true
	}

	// Assignment pass: distance from every remaining point to every
	// split point, batched one split point at a time (same computations
	// as the point-at-a-time loop, so the cost counter is unchanged).
	rest := make([]T, 0, len(work)-k)
	for wi, it := range work {
		if !inSplit[wi] {
			rest = append(rest, it)
		}
	}
	dmat := make([][]float64, k) // dmat[j][i] = d(rest[i], splits[j])
	for j := 0; j < k; j++ {
		dmat[j] = make([]float64, len(rest))
		b.Measure(n.splits[j], func(i int) T { return rest[i] }, dmat[j])
	}
	datasets := make([][]T, k)
	for i, it := range rest {
		bestJ, bestD := 0, 0.0
		for j := 0; j < k; j++ {
			if d := dmat[j][i]; j == 0 || d < bestD {
				bestJ, bestD = j, d
			}
		}
		datasets[bestJ] = append(datasets[bestJ], it)
	}

	// Ranges: lo/hi of d(split i, x) over each dataset j *including*
	// split point j itself, as in [Bri95] — pruning dataset j also
	// prunes split point j, so the range must cover it. This is the
	// second pass of distance computations [Bri95] pays for at
	// construction ("more expensive preprocessing than the vp-tree").
	// Batched per split point i over [splits..., dataset 0..., 1..., ...].
	flat := make([]T, 0, len(work))
	flat = append(flat, n.splits...)
	for j := range datasets {
		flat = append(flat, datasets[j]...)
	}
	row := make([]float64, len(flat))
	n.lo = make([][]float64, k)
	n.hi = make([][]float64, k)
	for i := 0; i < k; i++ {
		b.Measure(n.splits[i], func(x int) T { return flat[x] }, row)
		n.lo[i] = make([]float64, k)
		n.hi[i] = make([]float64, k)
		off := k
		for j := range datasets {
			lo := row[j] // d(split i, split j)
			hi := lo
			for x := 0; x < len(datasets[j]); x++ {
				d := row[off+x]
				if d < lo {
					lo = d
				}
				if d > hi {
					hi = d
				}
			}
			n.lo[i][j], n.hi[i][j] = lo, hi
			off += len(datasets[j])
		}
	}

	n.children = make([]*node[T], k)
	total := 0
	for j := range datasets {
		total += len(datasets[j])
	}
	childDegs := make([]int, k)
	for j := range datasets {
		childDeg := opts.Degree
		if opts.Adaptive && total > 0 {
			// Proportional to the dataset's share, averaging Degree.
			childDeg = int(float64(opts.Degree*k)*float64(len(datasets[j]))/float64(total) + 0.5)
			childDeg = max(opts.MinDegree, min(opts.MaxDegree, childDeg))
		}
		childDegs[j] = childDeg
	}
	b.Fork(k, func(j int) {
		n.children[j] = t.build(b, datasets[j], src.Child(j), opts, childDegs[j], depth+1)
	})
	return n
}

// chooseSplits returns indices into work of k split points: sample
// k·factor candidates, keep a greedy max-min-distance subset.
func (t *Tree[T]) chooseSplits(b *build.Builder[T], work []T, k int, src build.RNG, factor int) []int {
	candN := min(len(work), k*factor)
	cands := src.Rand().Perm(len(work))[:candN]
	chosen := make([]int, 0, k)
	chosen = append(chosen, cands[0])
	minDist := make([]float64, candN) // distance to nearest chosen split
	b.Measure(work[chosen[0]], func(i int) T { return work[cands[i]] }, minDist)
	row := make([]float64, candN)
	for len(chosen) < k {
		best, bestD := -1, -1.0
		for i, c := range cands {
			if containsInt(chosen, c) {
				continue
			}
			if minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, cands[best])
		b.Measure(work[cands[best]], func(i int) T { return work[cands[i]] }, row)
		for i := range cands {
			if row[i] < minDist[i] {
				minDist[i] = row[i]
			}
		}
	}
	return chosen
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
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
// the request's index.Approx (inert at zero options). Bound is ignored.
func (t *Tree[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		return t.knn(req.Point, req.K, req.Opts)
	}
	return t.rangeSearch(req.Point, req.Radius, req.Opts)
}

// Range returns every indexed item within distance r of q, following
// [Bri95]'s search: split points are consumed one at a time and each
// distance prunes sibling datasets through the stored ranges. It is a
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
// (== r when exact) decides every prune — a dataset is killed as soon
// as it provably contains nothing within rp of q.
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
			// Membership only, so the kernel may abandon at r; split
			// point distances stay exact (the range tables use them
			// two-sidedly).
			if t.dist.DistanceUpTo(q, it, r) <= r {
				*out = append(*out, it)
			}
		}
		return
	}
	k := len(n.splits)
	alive := make([]bool, k)
	for j := range alive {
		alive[j] = true
	}
	visited := make([]bool, k)
	for {
		// Pick an unvisited split point whose dataset is still alive.
		i := -1
		for j := 0; j < k; j++ {
			if alive[j] && !visited[j] {
				i = j
				break
			}
		}
		if i < 0 {
			break
		}
		visited[i] = true
		if !a.Pay(1) {
			return
		}
		d := t.dist.Distance(q, n.splits[i])
		s.VantagePoints++
		if d <= r {
			*out = append(*out, n.splits[i])
		}
		for j := 0; j < k; j++ {
			if !alive[j] {
				continue
			}
			if d+rp < n.lo[i][j] || d-rp > n.hi[i][j] {
				alive[j] = false
				s.ShellsPruned++
			}
		}
	}
	for j := 0; j < k; j++ {
		if alive[j] {
			t.rangeNode(n.children[j], q, r, rp, a, out, s)
			if a.Stop() {
				return
			}
		}
	}
}

// KNN returns the k nearest indexed items via best-first traversal. The
// lower bound of a child dataset is the tightest interval gap over all
// split points whose query distance was computed.
func (t *Tree[T]) KNN(q T, k int) []index.Neighbor[T] {
	return t.knn(q, k, index.SearchOptions{}).Neighbors
}

// KNNWithStats is KNN plus the per-query breakdown (not through
// Search, which reads k <= 0 as a range request).
func (t *Tree[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], SearchStats) {
	res := t.knn(q, k, index.SearchOptions{})
	return res.Neighbors, res.Stats
}

// knn is the only best-first kNN traversal implementation: child
// datasets and candidates are discarded once their lower bound reaches
// τ/(1+ε) while the heap keeps accepting against the full τ, and the
// budget is debited before every computation.
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
				// Abandon at τ; split point distances stay exact (the
				// range tables use them two-sidedly).
				best.Push(it, t.dist.DistanceUpTo(q, it, best.Threshold()))
			}
			continue
		}
		nk := len(n.splits)
		lbs := make([]float64, nk)
		for j := range lbs {
			lbs[j] = bound
		}
		for i := 0; i < nk; i++ {
			if !a.Pay(1) {
				break search
			}
			d := t.dist.Distance(q, n.splits[i])
			best.Push(n.splits[i], d)
			s.VantagePoints++
			for j := 0; j < nk; j++ {
				gap := 0.0
				switch {
				case d < n.lo[i][j]:
					gap = n.lo[i][j] - d
				case d > n.hi[i][j]:
					gap = d - n.hi[i][j]
				}
				if gap > lbs[j] {
					lbs[j] = gap
				}
			}
		}
		tauP := a.Shrink(best.Threshold())
		for j := 0; j < nk; j++ {
			if n.children[j] == nil {
				continue
			}
			if lbs[j] < tauP {
				queue.PushNode(n.children[j], lbs[j])
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
