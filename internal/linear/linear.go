// Package linear implements brute-force similarity search by scanning
// every indexed item. It is the ground truth the tree structures are
// validated against and the worst-case baseline in the benchmarks: a
// range query always costs exactly n distance computations.
//
// Queries (Range, KNN and their variants) read only immutable state and
// are safe to run concurrently against one instance; the shared
// distance counter is atomic.
package linear

import (
	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
)

// Scan is a linear-scan index over a fixed item set. The embedded
// obs.Hooks let callers attach an Observer and/or Tracer; with neither
// attached the query paths pay only nil checks.
type Scan[T any] struct {
	obs.Hooks
	items []T
	dist  *metric.Counter[T]

	// Quantized pre-filter state (EnableQuantize); nil when off.
	qset   *quant.Set
	qcodes []byte
}

// New returns a Scan over items measuring distances through dist. The
// item slice is copied.
func New[T any](items []T, dist *metric.Counter[T]) *Scan[T] {
	s := &Scan[T]{items: make([]T, len(items)), dist: dist}
	copy(s.items, items)
	return s
}

// Len reports the number of indexed items.
func (s *Scan[T]) Len() int { return len(s.items) }

// Counter returns the counted metric the scan measures distances with.
func (s *Scan[T]) Counter() *metric.Counter[T] { return s.dist }

// DistanceCount reports the cumulative distance computations on the
// scan's counter, the paper's cost metric.
func (s *Scan[T]) DistanceCount() int64 { return s.dist.Count() }

var _ index.Searcher[int] = (*Scan[int])(nil)

// Search is the scan's one query implementation (index.Searcher). A
// scan has no pruning, so Epsilon changes nothing here beyond flagging
// the answer; Budget truncates the scan after the allowed number of
// computations and Patience stops kNN after the configured number of
// consecutive non-improving candidates. The quantized pre-filter
// serves every query: a skipped evaluation is paid for like the kernel
// call it replaces. Workers and Bound are ignored.
func (s *Scan[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		return s.knn(req.Point, req.K, req.Opts)
	}
	return s.rangeScan(req.Point, req.Radius, req.Opts)
}

// Range returns every item within distance r of q, computing exactly
// Len() distances. It is a wrapper over Search.
func (s *Scan[T]) Range(q T, r float64) []T {
	return s.Search(index.RangeQuery(q, r)).Items
}

// RangeWithStats is Range plus the trivial breakdown of a scan: every
// item is a candidate and every candidate is computed.
func (s *Scan[T]) RangeWithStats(q T, r float64) ([]T, index.SearchStats) {
	res := s.Search(index.RangeQuery(q, r))
	return res.Items, res.Stats
}

func (s *Scan[T]) rangeScan(q T, r float64, o index.SearchOptions) index.Result[T] {
	span := s.StartQuery(obs.KindRange)
	var st index.SearchStats
	a := index.StartApprox(o)
	var out []T
	qp := s.prepareQuant(q)
	qset, qcodes := s.qset, s.qcodes
	filteredQuant := 0
	for i, it := range s.items {
		if !a.Pay(1) {
			break
		}
		st.Candidates++
		st.Computed++
		s.TraceDistance(1)
		// A certified quantized skip is charged exactly like the
		// abandoned kernel call it replaces.
		if qp != nil && qset.PruneAt(qp, qcodes, i, r) {
			s.dist.Add(1)
			filteredQuant++
			continue
		}
		// Membership is all that matters, so the kernel may abandon at r.
		if s.dist.DistanceUpTo(q, it, r) <= r {
			out = append(out, it)
		}
	}
	if filteredQuant > 0 {
		s.TracePrune(obs.FilterQuantized, filteredQuant)
	}
	s.releaseQuant(qp, filteredQuant)
	a.Finish(&st)
	st.Results = len(out)
	span.Done(&st)
	return index.Result[T]{Items: out, Stats: st}
}

// KNN returns the k items nearest to q in ascending distance order. It
// is KNNWithStats without the stats.
func (s *Scan[T]) KNN(q T, k int) []index.Neighbor[T] {
	return s.knn(q, k, index.SearchOptions{}).Neighbors
}

// KNNWithStats is KNN plus the trivial breakdown of a scan (not through
// Search, which reads k <= 0 as a range request).
func (s *Scan[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], index.SearchStats) {
	res := s.knn(q, k, index.SearchOptions{})
	return res.Neighbors, res.Stats
}

func (s *Scan[T]) knn(q T, k int, o index.SearchOptions) index.Result[T] {
	span := s.StartQuery(obs.KindKNN)
	var st index.SearchStats
	if k <= 0 || len(s.items) == 0 {
		span.Done(&st)
		return index.Result[T]{Stats: st}
	}
	a := index.StartApprox(o)
	qp := s.prepareQuant(q)
	qset, qcodes := s.qset, s.qcodes
	filteredQuant := 0
	h := heapx.NewKBest[T](k, len(s.items))
	for i, it := range s.items {
		if a.Stop() || !a.Pay(1) {
			break
		}
		st.Candidates++
		st.Computed++
		s.TraceDistance(1)
		tau := h.Threshold()
		// A certified quantized skip is charged exactly like the
		// abandoned kernel call it replaces.
		if qp != nil && qset.PruneAt(qp, qcodes, i, tau) {
			s.dist.Add(1)
			filteredQuant++
		} else {
			// Push ignores anything ≥ the current k-th best, so the
			// kernel may abandon at τ (exact while the heap is still
			// filling).
			h.Push(it, s.dist.DistanceUpTo(q, it, tau))
		}
		a.LeafDone(h.Threshold() < tau, h.Full())
	}
	if filteredQuant > 0 {
		s.TracePrune(obs.FilterQuantized, filteredQuant)
	}
	s.releaseQuant(qp, filteredQuant)
	out := h.Sorted()
	a.Finish(&st)
	st.Results = len(out)
	span.Done(&st)
	return index.Result[T]{Neighbors: out, Stats: st}
}
