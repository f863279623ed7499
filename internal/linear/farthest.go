package linear

import (
	"mvptree/internal/heapx"
	"mvptree/internal/index"
)

// RangeFarther returns every item at distance ≥ r from q, computing
// exactly Len() distances.
func (s *Scan[T]) RangeFarther(q T, r float64) []T {
	var out []T
	for _, it := range s.items {
		if s.dist.Distance(q, it) >= r {
			out = append(out, it)
		}
	}
	return out
}

// KFarthest returns the k items farthest from q in descending distance
// order.
func (s *Scan[T]) KFarthest(q T, k int) []index.Neighbor[T] {
	if k <= 0 || len(s.items) == 0 {
		return nil
	}
	h := heapx.NewKLargest[T](k, len(s.items))
	for _, it := range s.items {
		h.Push(it, s.dist.Distance(q, it))
	}
	return h.Sorted()
}
