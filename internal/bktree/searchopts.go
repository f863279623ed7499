package bktree

import (
	"math"

	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/obs"
)

var _ index.Searcher[int] = (*Tree[int])(nil)

// Search is the unified query entry point (index.Searcher). With
// zero-valued SearchOptions it runs the exact traversal, byte-identical
// to RangeWithStats / KNNWithStats (which remain as thin wrappers over
// the same code paths); Epsilon, Budget or Patience switch to the
// approximate traversal below. Approximate traversals do not consult
// the cascade; Workers and Bound are not supported by this structure
// and are ignored.
func (t *Tree[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		if !req.Opts.Approximate() {
			nb, s := t.KNNWithStats(req.Point, req.K)
			return index.Result[T]{Neighbors: nb, Stats: s}
		}
		return t.knnApprox(req.Point, req.K, req.Opts)
	}
	if !req.Opts.Approximate() {
		out, s := t.RangeWithStats(req.Point, req.Radius)
		return index.Result[T]{Items: out, Stats: s}
	}
	return t.rangeApprox(req.Point, req.Radius, req.Opts)
}

// rangeApprox narrows the child key window to [⌈d−rp⌉, ⌊d+rp⌋] with
// rp = r/(1+ε) while acceptance keeps the full r, and debits the
// budget before every computation. Every reported item is within r;
// every item within rp is guaranteed reported.
func (t *Tree[T]) rangeApprox(q T, r float64, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindRange)
	var s SearchStats
	if r < 0 || t.root == nil {
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
	if a.Stop() || !a.Pay(1) {
		return
	}
	s.NodesVisited++
	leaf := n.isLeaf()
	t.TraceNode(leaf)
	s.Candidates++
	s.Computed++
	t.TraceDistance(1)
	if leaf {
		s.LeavesVisited++
		if t.dist.DistanceUpTo(q, n.item, r) <= r {
			*out = append(*out, n.item)
		}
		return
	}
	d := t.dist.Distance(q, n.item)
	if d <= r {
		*out = append(*out, n.item)
	}
	lo := int(math.Ceil(d - rp))
	hi := int(math.Floor(d + rp))
	for i, c := range n.kids {
		if key := n.keys[i]; key >= lo && key <= hi {
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

// knnApprox is best-first kNN with the approximation knobs: a child
// is discarded once its lower bound |d − key| reaches τ/(1+ε), the
// budget is debited before every computation, and patience stops the
// search after the configured number of consecutive non-improving
// leaves (for the bk-tree, nodes whose push failed to tighten τ).
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
		if !a.Pay(1) {
			break
		}
		s.NodesVisited++
		leaf := n.isLeaf()
		t.TraceNode(leaf)
		if leaf {
			s.LeavesVisited++
		}
		s.Candidates++
		s.Computed++
		t.TraceDistance(1)
		var d float64
		if leaf {
			d = t.dist.DistanceUpTo(q, n.item, best.Threshold())
		} else {
			d = t.dist.Distance(q, n.item)
		}
		best.Push(n.item, d)
		if leaf {
			a.LeafDone(best.Threshold() < tau, best.Full())
			continue
		}
		for i, c := range n.kids {
			lb := math.Abs(d - float64(n.keys[i]))
			if lb < bound {
				lb = bound
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
