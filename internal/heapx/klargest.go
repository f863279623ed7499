package heapx

import "mvptree/internal/index"

// KLargest keeps the k largest-distance neighbors seen so far — the
// mirror of KBest, used by the farthest-neighbor queries the paper lists
// among the similarity-query variants (§2). It is a min-heap on distance
// so the current weakest candidate is inspectable in O(1).
type KLargest[T any] struct {
	k     int
	items []index.Neighbor[T]
}

// NewKLargest returns a KLargest that retains at most k neighbors out
// of most candidates; as NewKBest, the backing array is min(k, most)
// long. k must be positive or NewKLargest panics.
func NewKLargest[T any](k, most int) *KLargest[T] {
	if k <= 0 {
		panic("heapx: NewKLargest requires k > 0")
	}
	return &KLargest[T]{k: k, items: make([]index.Neighbor[T], 0, min(k, most))}
}

// Reset empties the heap and re-arms it for at most k neighbors out of
// most candidates, keeping the backing array where it is large enough,
// as KBest.Reset does. k must be positive or Reset panics.
func (h *KLargest[T]) Reset(k, most int) {
	if k <= 0 {
		panic("heapx: Reset requires k > 0")
	}
	h.k = k
	if c := min(k, most); cap(h.items) < c {
		h.items = make([]index.Neighbor[T], 0, c)
	} else {
		clear(h.items[:cap(h.items)])
		h.items = h.items[:0]
	}
}

// Len reports how many neighbors are currently held (≤ k).
func (h *KLargest[T]) Len() int { return len(h.items) }

// Full reports whether k neighbors are held.
func (h *KLargest[T]) Full() bool { return len(h.items) == h.k }

// Accepts reports whether a candidate at distance d would be kept.
func (h *KLargest[T]) Accepts(d float64) bool {
	if !h.Full() {
		return true
	}
	return d > h.items[0].Dist
}

// Push offers a candidate; it is kept only if it is among the k largest.
func (h *KLargest[T]) Push(item T, d float64) {
	if len(h.items) < h.k {
		h.items = append(h.items, index.Neighbor[T]{Item: item, Dist: d})
		h.up(len(h.items) - 1)
		return
	}
	if d <= h.items[0].Dist {
		return
	}
	h.items[0] = index.Neighbor[T]{Item: item, Dist: d}
	h.down(0)
}

// Sorted removes and returns all held neighbors ordered by descending
// distance (farthest first). The heap is empty afterwards.
func (h *KLargest[T]) Sorted() []index.Neighbor[T] {
	out := make([]index.Neighbor[T], len(h.items))
	for i := len(h.items) - 1; i >= 0; i-- {
		out[i] = h.items[0]
		last := len(h.items) - 1
		h.items[0] = h.items[last]
		h.items = h.items[:last]
		if last > 0 {
			h.down(0)
		}
	}
	return out
}

func (h *KLargest[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[i].Dist >= h.items[parent].Dist {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *KLargest[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.items[l].Dist < h.items[small].Dist {
			small = l
		}
		if r < n && h.items[r].Dist < h.items[small].Dist {
			small = r
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}
