package dynamic

import (
	"mvptree/internal/heapx"
	"mvptree/internal/index"
)

// Farthest-object queries over the dynamic store: the tree answers for
// its live members, the overflow buffer is scanned, tombstones are
// filtered. The buffer's distances are waste (maybeRebuild); the tree's
// farthest traversals report no stats, so their tombstones' share is not
// charged.

// RangeFarther returns every live item at distance ≥ r from q.
func (s *Store[T]) RangeFarther(q T, r float64) []T {
	s.mu.RLock()
	defer s.mu.RUnlock()
	probe := entry[T]{item: q}
	var out []T
	for _, e := range s.tree.RangeFarther(probe, r) {
		if s.alive[e.id] {
			out = append(out, e.item)
		}
	}
	for _, e := range s.buffer {
		if s.dist.Distance(probe, e) >= r {
			out = append(out, e.item)
		}
	}
	s.waste.Add(int64(len(s.buffer)))
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
	probe := entry[T]{item: q}
	k = min(k, s.live) // as kNN: the live set bounds the answer, the heap and the sum
	best := heapx.NewKLargest[T](k, k)
	for _, nb := range s.tree.KFarthest(probe, k+s.treeDead) {
		if s.alive[nb.Item.id] {
			best.Push(nb.Item.item, nb.Dist)
		}
	}
	for _, e := range s.buffer {
		best.Push(e.item, s.dist.Distance(probe, e))
	}
	s.waste.Add(int64(len(s.buffer)))
	return best.Sorted()
}
