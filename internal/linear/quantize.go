package linear

import (
	"fmt"
	"sync"

	"mvptree/internal/build"
	"mvptree/internal/metric"
	"mvptree/internal/quant"
)

// EnableQuantize builds the quantized pre-filter for the scan: the
// item vectors are encoded into one companion arena (SQ8 byte codes,
// internal/quant) that Range and KNN consult before the exact kernel —
// a candidate whose quantized lower bound certifies
// its distance exceeds the query threshold skips the float64
// evaluation. The skip is charged to the distance counter and to
// SearchStats.Computed exactly as the abandoned kernel call would have
// been, so results, order, per-query stats and counter deltas are
// byte-identical with the filter on or off. Skipped evaluations
// surface as FilterQuantized trace events and in the Observer's
// filtered_by_quantized total.
//
// The filter applies only to []float64 items under a metric whose
// kernel registered a quantized lower-bound shape
// (metric.Register); any other scan, and any dataset
// quant.Build rejects, is left unfiltered silently. mode Off tears the
// filter down.
//
// EnableQuantize is not synchronized with in-flight queries: arm the
// filter before serving.
func (s *Scan[T]) EnableQuantize(mode quant.Mode) error {
	if mode == quant.Off {
		s.qset, s.qcodes = nil, nil
		return nil
	}
	if mode != quant.SQ8 {
		return fmt.Errorf("linear: unknown quantize mode %v", mode)
	}
	if len(s.items) == 0 {
		return nil
	}
	kind := s.dist.QuantKind()
	if kind == metric.QuantNone {
		return nil
	}
	q, ok := build.QuantizeVectors([][]T{s.items}, kind, mode)
	if !ok {
		return nil
	}
	s.qset, s.qcodes = q.Set, q.Codes[0]
	return nil
}

// Quantized reports the trained pre-filter, nil unless EnableQuantize
// armed one.
func (s *Scan[T]) Quantized() *quant.Set { return s.qset }

// qprepPool recycles query-side threshold tables across the scan's
// concurrent queries (the scan has no per-query scratch of its own to
// hang them on).
var qprepPool = sync.Pool{New: func() any { return new(quant.Prepared) }}

// prepareQuant arms a pooled Prepared for one query, nil when the
// filter is off or the query is not a vector.
func (s *Scan[T]) prepareQuant(q T) *quant.Prepared {
	if s.qset == nil {
		return nil
	}
	qv, ok := any(q).([]float64)
	if !ok {
		return nil
	}
	p := qprepPool.Get().(*quant.Prepared)
	s.qset.Prepare(p, qv)
	return p
}

// releaseQuant returns the query's Prepared to the pool and flushes
// the skipped-evaluation tally to the Observer.
func (s *Scan[T]) releaseQuant(p *quant.Prepared, pruned int) {
	if p == nil {
		return
	}
	qprepPool.Put(p)
	s.ObserveQuantPruned(pruned)
}
