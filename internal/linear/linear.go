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

var _ index.StatsIndex[int] = (*Scan[int])(nil)

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

// Range returns every item within distance r of q, computing exactly
// Len() distances. It delegates to RangeWithStats.
func (s *Scan[T]) Range(q T, r float64) []T {
	out, _ := s.RangeWithStats(q, r)
	return out
}

// RangeWithStats is Range plus the trivial breakdown of a scan: every
// item is a candidate and every candidate is computed.
func (s *Scan[T]) RangeWithStats(q T, r float64) ([]T, index.SearchStats) {
	span := s.StartQuery(obs.KindRange)
	var st index.SearchStats
	var out []T
	qp := s.prepareQuant(q)
	qset, qcodes := s.qset, s.qcodes
	filteredQuant := 0
	for i, it := range s.items {
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
	st.Results = len(out)
	span.Done(&st)
	return out, st
}

// KNN returns the k items nearest to q in ascending distance order. It
// delegates to KNNWithStats.
func (s *Scan[T]) KNN(q T, k int) []index.Neighbor[T] {
	out, _ := s.KNNWithStats(q, k)
	return out
}

// KNNWithStats is KNN plus the trivial breakdown of a scan.
func (s *Scan[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], index.SearchStats) {
	span := s.StartQuery(obs.KindKNN)
	var st index.SearchStats
	if k <= 0 || len(s.items) == 0 {
		span.Done(&st)
		return nil, st
	}
	qp := s.prepareQuant(q)
	qset, qcodes := s.qset, s.qcodes
	filteredQuant := 0
	h := heapx.NewKBest[T](k)
	for i, it := range s.items {
		st.Candidates++
		st.Computed++
		s.TraceDistance(1)
		tau := h.Threshold()
		// A certified quantized skip is charged exactly like the
		// abandoned kernel call it replaces.
		if qp != nil && qset.PruneAt(qp, qcodes, i, tau) {
			s.dist.Add(1)
			filteredQuant++
			continue
		}
		// Push ignores anything ≥ the current k-th best, so the kernel
		// may abandon at τ (exact while the heap is still filling).
		h.Push(it, s.dist.DistanceUpTo(q, it, tau))
	}
	if filteredQuant > 0 {
		s.TracePrune(obs.FilterQuantized, filteredQuant)
	}
	s.releaseQuant(qp, filteredQuant)
	out := h.Sorted()
	st.Results = len(out)
	span.Done(&st)
	return out, st
}
