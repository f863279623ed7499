package mvp

import (
	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/quant"
)

// queryScratch is the per-query working state Range and KNN borrow from
// the tree's sync.Pool so steady-state queries allocate nothing but the
// result slice. Every buffer is reused at its high-water capacity.
type queryScratch[T any] struct {
	// ap is the query's approximation state, compiled from its
	// SearchOptions by getScratch (exact when they are zero). limited
	// caches "a distance budget is set" so the leaf scans test a local
	// before calling ap.Pay per candidate.
	ap      index.Approx
	limited bool
	// qlo/qhi are the query PATH as the leaf scan reads it: per level,
	// the codes a candidate's PATH entry must lie in. The range recursion
	// writes d(q, vantage point) ± (r+slack) once per level on the way
	// down (window), threading the live prefix length; kNN writes a leaf's
	// whole prefix from its arena window on entering the leaf and after a
	// push that moves τ′ (knnWindows). Always p long.
	qlo, qhi []uint16
	// cqd is the query's distances to the cascade's pivots, paid up front
	// (payPivots; empty when none were), and clo/chi their windows: a
	// range query's made once (cascadeWindows), kNN's per leaf
	// (knnWindows).
	cqd      []float64
	clo, chi []uint16
	// best and queue drive best-first kNN, far and queue KFarthest. The
	// heaps are created lazily because heapx needs k up front; Reset
	// re-arms them for each query's k.
	best  *heapx.KBest[T]
	far   *heapx.KLargest[T]
	queue heapx.NodeQueue[pendingRef]
	// arena backs the per-node query PATHs of the best-first traversals:
	// each pending node references a stable (offset, length) window
	// instead of owning a copied slice. RangeFarther's depth-first
	// descent keeps its one query PATH there too.
	arena []float64
	// Quantized pre-filter state, re-armed per query by prepareQuant
	// (quantOn guards staleness across pool reuse).
	qprep   quant.Prepared
	quantOn bool
	// rows holds a narrow arena's leaf rows widened for the farthest
	// queries (Tree.wideRows).
	rows []uint16
	// remove makes a range query a Remove: what it would report, it
	// tombstones (Tree.accept).
	remove bool
}

// pendingRef is a queued subtree, by its root's index, plus its query PATH
// as a window into the scratch arena. Offsets stay valid across arena
// growth, unlike slices into it.
type pendingRef struct{ n, off, plen int32 }

func (t *Tree[T]) getScratch(o index.SearchOptions) *queryScratch[T] {
	var sc *queryScratch[T]
	if v := t.scratch.Get(); v != nil {
		sc = v.(*queryScratch[T])
	} else {
		sc = &queryScratch[T]{}
	}
	sc.ap = index.StartApprox(o)
	sc.limited = o.Budget > 0
	// The range recursion writes qlo[plen] directly, so the buffers
	// are kept at their full length (p entries) up front.
	if len(sc.qlo) < t.p {
		sc.qlo = make([]uint16, t.p)
		sc.qhi = make([]uint16, t.p)
	}
	return sc
}

// putScratch returns sc to the pool, its queue empty.
func (t *Tree[T]) putScratch(sc *queryScratch[T]) {
	sc.arena = sc.arena[:0]
	sc.quantOn = false
	sc.queue.Reset()
	if sc.best != nil {
		sc.best.Reset(1, 1) // clears retained neighbors; re-armed per query
	}
	if sc.far != nil {
		sc.far.Reset(1, 1)
	}
	t.scratch.Put(sc)
}
