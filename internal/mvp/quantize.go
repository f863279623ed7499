package mvp

import (
	"fmt"

	"mvptree/internal/build"
	"mvptree/internal/metric"
	"mvptree/internal/quant"
)

// EnableQuantize builds the quantized pre-filter for the tree: the leaf
// items' vectors are encoded into a companion arena in the same order
// (SQ8 byte codes, internal/quant) that Range and KNN leaf scans consult before
// the exact kernel — a candidate whose quantized
// lower bound certifies its distance exceeds the query threshold skips
// the float64 evaluation. The skip is an abandonment certificate, so
// it is charged to the distance counter and to SearchStats.Computed
// exactly as the abandoned kernel call would have been: results,
// order, counter deltas and every other SearchStats field are
// byte-identical with the filter on or off. SearchStats.FilteredByQuantized
// counts the skips — the one field the filter moves, as FilteredByCascade
// is the cascade's — and reaches an attached Observer with the rest.
//
// The filter applies only to []float64 items under a metric whose
// kernel registered a quantized lower-bound shape
// (metric.Register — L1, L2, LInf and Cosine do); any other
// tree is left unfiltered silently, as are datasets quant.Build
// rejects (empty, inconsistent dimensions, non-finite coordinates).
// mode Off tears the filter down. The encoder reads the leaf items as a
// []T, rebuilt from the point arena where it holds pointers or a block
// (items.go) and dropped once the codes are made.
//
// EnableQuantize is not synchronized with in-flight queries: arm the
// filter before serving. The arenas are not serialized by Save;
// re-enable after Load. Every Search consults the filter, approximate
// and budgeted ones included: a skipped evaluation is debited from the
// budget like the kernel call it replaces.
func (t *Tree[T]) EnableQuantize(mode quant.Mode) error {
	if mode == quant.Off {
		t.qset, t.qcodes = nil, nil
		return nil
	}
	if mode != quant.SQ8 {
		return fmt.Errorf("mvp: unknown quantize mode %v", mode)
	}
	kind := t.dist.QuantKind()
	if kind == metric.QuantNone {
		return nil
	}
	q, ok := build.QuantizeVectors([][]T{t.items.first(t.leafItems)}, kind, mode)
	if !ok {
		return nil
	}
	t.qset, t.qcodes = q.Set, q.Codes[0]
	return nil
}

// leafCodes returns the companion rows of leaf n's items, item i's at
// i·Dim; nil while no filter is armed.
func (t *Tree[T]) leafCodes(n *node) []byte {
	if t.qset == nil {
		return nil
	}
	return t.qcodes[int(n.off)*t.qset.Dim():]
}

// Quantized reports the trained pre-filter, nil unless EnableQuantize
// armed one.
func (t *Tree[T]) Quantized() *quant.Set { return t.qset }

// prepareQuant arms p, a query's pre-filter state, for q and reports
// whether the filter applies to it. Queries of non-vector type leave it
// off (the arenas only exist for []float64 items, but T is erased here, so
// the query is re-checked).
func (t *Tree[T]) prepareQuant(p *quant.Prepared, q T) bool {
	qv, ok := any(q).([]float64)
	if t.qset == nil || !ok {
		return false
	}
	t.qset.Prepare(p, qv)
	return true
}
