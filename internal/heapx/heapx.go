// Package heapx provides the two small priority queues used by the
// k-nearest-neighbor search algorithms: a bounded max-heap that keeps the
// k best (smallest-distance) candidates seen so far, and a min-heap of
// pending search nodes ordered by lower-bound distance for best-first
// traversal.
package heapx

import (
	"math"

	"mvptree/internal/index"
)

// inf avoids re-deriving +Inf on the Threshold hot path.
var inf = math.Inf(1)

// KBest keeps the k smallest-distance neighbors seen so far. It is a
// max-heap on distance so the current worst candidate is inspectable in
// O(1) and replaceable in O(log k).
type KBest[T any] struct {
	k     int
	items []index.Neighbor[T]
}

// NewKBest returns a KBest that retains at most k neighbors. most is
// how many candidates it can be offered — the structure's item count —
// and bounds the backing array at min(k, most): k may be the word of a
// request, and nothing is allocated on that alone. k must be positive
// or NewKBest panics.
func NewKBest[T any](k, most int) *KBest[T] {
	if k <= 0 {
		panic("heapx: NewKBest requires k > 0")
	}
	return &KBest[T]{k: k, items: make([]index.Neighbor[T], 0, min(k, most))}
}

// Len reports how many neighbors are currently held (≤ k).
func (h *KBest[T]) Len() int { return len(h.items) }

// Full reports whether k neighbors are held.
func (h *KBest[T]) Full() bool { return len(h.items) == h.k }

// Bound returns the current pruning bound: the k-th best distance if the
// heap is full, or +Inf-like sentinel behaviour via ok=false otherwise.
func (h *KBest[T]) Bound() (worst float64, ok bool) {
	if !h.Full() {
		return 0, false
	}
	return h.items[0].Dist, true
}

// Threshold returns the live pruning threshold τ for early-abandoning
// distance kernels: the current k-th best distance when the heap is
// full, +Inf otherwise. Any candidate whose distance provably exceeds
// Threshold() would be rejected by Push, so an abandoned (understated)
// distance > τ is safe to offer.
func (h *KBest[T]) Threshold() float64 {
	if !h.Full() {
		return inf
	}
	return h.items[0].Dist
}

// Reset empties the heap and re-arms it for at most k neighbors out of
// most candidates (as NewKBest), retaining the backing array so a
// pooled KBest can serve queries with varying k without reallocating
// (the slice grows only when min(k, most) exceeds every previous
// capacity). k must be positive or Reset panics.
func (h *KBest[T]) Reset(k, most int) {
	if k <= 0 {
		panic("heapx: Reset requires k > 0")
	}
	h.k = k
	if c := min(k, most); cap(h.items) < c {
		h.items = make([]index.Neighbor[T], 0, c)
	} else {
		clear(h.items)
		h.items = h.items[:0]
	}
}

// Accepts reports whether a candidate at distance d would be kept.
func (h *KBest[T]) Accepts(d float64) bool {
	if !h.Full() {
		return true
	}
	return d < h.items[0].Dist
}

// Push offers a candidate; it is kept only if it is among the k best.
func (h *KBest[T]) Push(item T, d float64) {
	if len(h.items) < h.k {
		h.items = append(h.items, index.Neighbor[T]{Item: item, Dist: d})
		h.up(len(h.items) - 1)
		return
	}
	if d >= h.items[0].Dist {
		return
	}
	h.items[0] = index.Neighbor[T]{Item: item, Dist: d}
	h.down(0)
}

// Sorted removes and returns all held neighbors ordered by ascending
// distance. The heap is empty afterwards.
func (h *KBest[T]) Sorted() []index.Neighbor[T] {
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

func (h *KBest[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[i].Dist <= h.items[parent].Dist {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *KBest[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.items[l].Dist > h.items[big].Dist {
			big = l
		}
		if r < n && h.items[r].Dist > h.items[big].Dist {
			big = r
		}
		if big == i {
			return
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
}

// NodeQueue is a min-heap of pending search nodes keyed by a lower bound
// on the distance from the query to anything inside the node. Best-first
// kNN search pops the most promising node first and stops once the best
// lower bound exceeds the current k-th neighbor distance.
type NodeQueue[N any] struct {
	nodes  []N
	bounds []float64
}

// PushNode adds a node with the given lower bound.
func (q *NodeQueue[N]) PushNode(n N, bound float64) {
	q.nodes = append(q.nodes, n)
	q.bounds = append(q.bounds, bound)
	i := len(q.nodes) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.bounds[i] >= q.bounds[parent] {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// PopNode removes and returns the node with the smallest lower bound.
// ok is false when the queue is empty.
func (q *NodeQueue[N]) PopNode() (n N, bound float64, ok bool) {
	if len(q.nodes) == 0 {
		return n, 0, false
	}
	n, bound = q.nodes[0], q.bounds[0]
	last := len(q.nodes) - 1
	q.swap(0, last)
	q.nodes = q.nodes[:last]
	q.bounds = q.bounds[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && q.bounds[l] < q.bounds[small] {
			small = l
		}
		if r < last && q.bounds[r] < q.bounds[small] {
			small = r
		}
		if small == i {
			break
		}
		q.swap(i, small)
		i = small
	}
	return n, bound, true
}

// Len reports the number of pending nodes.
func (q *NodeQueue[N]) Len() int { return len(q.nodes) }

// Reset empties the queue, retaining both backing arrays so a pooled
// NodeQueue serves subsequent queries without reallocating.
func (q *NodeQueue[N]) Reset() {
	clear(q.nodes)
	q.nodes = q.nodes[:0]
	q.bounds = q.bounds[:0]
}

func (q *NodeQueue[N]) swap(i, j int) {
	q.nodes[i], q.nodes[j] = q.nodes[j], q.nodes[i]
	q.bounds[i], q.bounds[j] = q.bounds[j], q.bounds[i]
}
