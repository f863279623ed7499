package vptree

import (
	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/obs"
)

var _ index.Searcher[int] = (*Tree[int])(nil)

// Search is the unified query entry point (index.Searcher). With
// zero-valued SearchOptions it runs the exact traversal, byte-identical
// to RangeWithStats / KNNWithStats; Epsilon, Budget or Patience switch
// to the approximate traversal.
// Approximate traversals do not consult the cascade or an external
// KNNBound, and Workers is honored only on exact range queries.
func (t *Tree[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		if !req.Opts.Approximate() {
			nb, s := t.knnBound(req.Point, req.K, req.Opts.Bound)
			return index.Result[T]{Neighbors: nb, Stats: s}
		}
		return t.knnApprox(req.Point, req.K, req.Opts)
	}
	if !req.Opts.Approximate() {
		if req.Opts.Workers > 1 {
			out, s := t.rangeParallel(req.Point, req.Radius, req.Opts.Workers)
			return index.Result[T]{Items: out, Stats: s}
		}
		out, s := t.RangeWithStats(req.Point, req.Radius)
		return index.Result[T]{Items: out, Stats: s}
	}
	return t.rangeApprox(req.Point, req.Radius, req.Opts)
}

// rangeApprox prunes shells against the shrunken radius rp = r/(1+ε)
// while acceptance keeps the full r: every reported item is within r
// and every item within rp is guaranteed reported. The budget is
// debited before each computation, so stats match the Counter delta
// even when the traversal stops mid-leaf.
func (t *Tree[T]) rangeApprox(q T, r float64, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindRange)
	var s SearchStats
	if r < 0 {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	a := index.StartApprox(o)
	var out []T
	t.rangeNodeApprox(t.root, q, r, a.Shrink(r), &a, &out, &s)
	a.Finish(&s)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Items: out, Stats: s}
}

func (t *Tree[T]) rangeNodeApprox(n *node[T], q T, r, rp float64, a *index.Approx, out *[]T, s *SearchStats) {
	if n == nil || a.Stop() {
		return
	}
	s.NodesVisited++
	t.TraceNode(n.leaf)
	if n.leaf {
		s.LeavesVisited++
		computed := 0
		for _, it := range n.items {
			if !a.Pay(1) {
				break
			}
			s.Candidates++
			computed++
			if t.dist.DistanceUpTo(q, it, r) <= r {
				*out = append(*out, it)
			}
		}
		s.Computed += computed
		if computed > 0 {
			t.TraceDistance(computed)
		}
		return
	}
	if !a.Pay(1) {
		return
	}
	// Exact-path kernel bound (r + cutMax): an abandoned value and the
	// true one land on the same side of every rp-shell test because
	// rp ≤ r.
	d := t.dist.DistanceUpTo(q, n.vantage, r+n.cutMax)
	s.VantagePoints++
	t.TraceDistance(1)
	if d <= r {
		*out = append(*out, n.vantage)
	}
	for g, c := range n.children {
		lo, hi := shellBounds(n.cutoffs, g)
		if d+rp >= lo && d-rp <= hi {
			t.rangeNodeApprox(c, q, r, rp, a, out, s)
			if a.Stop() {
				return
			}
		} else {
			s.ShellsPruned++
			t.TracePrune(obs.FilterShell, 1)
		}
	}
}

// knnApprox is best-first kNN with the approximation knobs: subtrees
// are discarded once their lower bound reaches τ/(1+ε), the budget is
// debited before every computation (the heap always holds the best
// candidates seen so far), and patience stops the search after the
// configured number of consecutive leaves that fail to tighten τ.
func (t *Tree[T]) knnApprox(q T, k int, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindKNN)
	var s SearchStats
	if k <= 0 || t.root == nil {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	a := index.StartApprox(o)
	best := heapx.NewKBest[T](k)
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
			computed := 0
			for _, it := range n.items {
				if !a.Pay(1) {
					break
				}
				s.Candidates++
				computed++
				cb := best.Threshold()
				if d := t.dist.DistanceUpTo(q, it, cb); d <= cb {
					best.Push(it, d)
				}
			}
			s.Computed += computed
			if computed > 0 {
				t.TraceDistance(computed)
			}
			a.LeafDone(best.Threshold() < tau, best.Full())
			continue
		}
		if !a.Pay(1) {
			break
		}
		vb := tau + n.cutMax
		d := t.dist.DistanceUpTo(q, n.vantage, vb)
		if d <= vb {
			best.Push(n.vantage, d)
		}
		s.VantagePoints++
		t.TraceDistance(1)
		for g, c := range n.children {
			if c == nil {
				continue
			}
			lo, hi := shellBounds(n.cutoffs, g)
			lb := 0.0
			if d < lo {
				lb = lo - d
			} else if d > hi {
				lb = d - hi
			}
			if lb < a.Shrink(best.Threshold()) {
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
