package mvp

import (
	"fmt"

	"mvptree/internal/build"
	"mvptree/internal/metric"
	"mvptree/internal/quant"
)

// EnableQuantize builds the quantized pre-filter for the tree: every
// leaf's item vectors are encoded into a companion arena (SQ8 byte
// codes, internal/quant) that Range and KNN leaf scans consult before
// the exact kernel — a candidate whose quantized
// lower bound certifies its distance exceeds the query threshold skips
// the float64 evaluation. The skip is an abandonment certificate, so
// it is charged to the distance counter and to SearchStats.Computed
// exactly as the abandoned kernel call would have been: results,
// order, per-query stats and counter deltas are byte-identical with
// the filter on or off. Skipped evaluations are observable through
// obs (FilterQuantized trace events per leaf and the Observer's
// filtered_by_quantized total).
//
// The filter applies only to []float64 items under a metric whose
// kernel registered a quantized lower-bound shape
// (metric.RegisterQuantized — L1, L2, LInf and Cosine do); any other
// tree is left unfiltered silently, as are datasets quant.Build
// rejects (empty, inconsistent dimensions, non-finite coordinates).
// mode Off tears the filter down.
//
// EnableQuantize is not synchronized with in-flight queries: arm the
// filter before serving. The arenas are not serialized by Save;
// re-enable after Load. Every Search consults the filter, approximate
// and budgeted ones included: a skipped evaluation is debited from the
// budget like the kernel call it replaces.
func (t *Tree[T]) EnableQuantize(mode quant.Mode) error {
	if mode == quant.Off {
		t.disableQuantize()
		return nil
	}
	if mode != quant.SQ8 {
		return fmt.Errorf("mvp: unknown quantize mode %v", mode)
	}
	if t.root == nil {
		return nil
	}
	kind := t.dist.QuantKind()
	if kind == metric.QuantNone {
		return nil
	}
	var leaves []*node[T]
	var groups [][]T
	t.root.eachLeaf(func(n *node[T]) {
		if n.cnt > 0 {
			leaves = append(leaves, n)
			groups = append(groups, t.items[n.off:n.off+n.cnt])
		}
	})
	q, ok := build.QuantizeVectors(groups, kind, mode)
	if !ok {
		return nil
	}
	t.disableQuantize()
	for i, n := range leaves {
		n.qcodes = q.Codes[i]
	}
	t.qset = q.Set
	return nil
}

// disableQuantize drops the filter state so pruning stops immediately.
func (t *Tree[T]) disableQuantize() {
	if t.qset == nil {
		return
	}
	t.qset = nil
	t.root.eachLeaf(func(n *node[T]) { n.qcodes = nil })
}

// Quantized reports the trained pre-filter, nil unless EnableQuantize
// armed one.
func (t *Tree[T]) Quantized() *quant.Set { return t.qset }

// prepareQuant arms the scratch's pre-filter state for one query.
// Queries of non-vector type leave it off (the arenas only exist for
// []float64 items, but T is erased here, so the query is re-checked).
func (t *Tree[T]) prepareQuant(sc *queryScratch[T], q T) {
	sc.quantOn = false
	sc.quantPruned = 0
	if t.qset == nil {
		return
	}
	qv, ok := any(q).([]float64)
	if !ok {
		return
	}
	t.qset.Prepare(&sc.qprep, qv)
	sc.quantOn = true
}

// finishQuant flushes the query's skipped-evaluation tally to the
// Observer (no-op when nothing was pruned or no Observer is attached).
func (t *Tree[T]) finishQuant(sc *queryScratch[T]) {
	t.ObserveQuantPruned(sc.quantPruned)
}
