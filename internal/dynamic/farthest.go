package dynamic

import (
	"mvptree/internal/heapx"
	"mvptree/internal/index"
)

// Farthest-object queries over the dynamic store: the tree answers for
// its live members, passing over its tombstones, and the overflow buffer is
// filtered by the pivots' bounds, reversed: a buffered item whose upper
// bound falls short is not measured, nor one whose lower bound already
// clears the range or cannot beat the k-th farthest. What the buffer
// costs is waste (maybeRebuild); the tree's farthest traversals report no
// stats.

// RangeFarther returns every live item at distance ≥ r from q.
func (s *Store[T]) RangeFarther(q T, r float64) []T {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := s.tree.RangeFarther(q, r)
	var st SearchStats
	tl := s.startTail(q, index.SearchOptions{}, &st)
	for i, e := range s.buffer {
		lb, ub := tl.bounds(i)
		switch {
		case ub < r: // provably too close
		case lb >= r: // provably far enough
			out = append(out, e)
		default:
			tl.pay(&st)
			if s.dist.Distance(q, e) >= r {
				out = append(out, e)
			}
		}
	}
	s.waste.Add(st.Distances())
	return out
}

// KFarthest returns the k live items farthest from q in descending
// distance order.
func (s *Store[T]) KFarthest(q T, k int) []index.Neighbor[T] {
	if k <= 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.live == 0 {
		return nil
	}
	k = min(k, s.live) // as kNN: the live set bounds the answer and the heap
	best := heapx.NewKLargest[T](k, k)
	for _, nb := range s.tree.KFarthest(q, k) {
		best.Push(nb.Item, nb.Dist)
	}
	var st SearchStats
	tl := s.startTail(q, index.SearchOptions{}, &st)
	for i, e := range s.buffer {
		if _, ub := tl.bounds(i); best.Accepts(ub) {
			tl.pay(&st)
			best.Push(e, s.dist.Distance(q, e))
		}
	}
	s.waste.Add(st.Distances())
	return best.Sorted()
}
