package mvp

// A tree over a set that changes — the dynamic store's, whose deleted
// items stay in the tree until its next rebuild — can be told to skip
// items. A skipped item is in no answer of any query: Search's range and
// kNN, SearchBatch, RangeFarther and KFarthest. A skipped leaf item is
// never measured; a skipped vantage point is measured where the descent
// needs its distance, and then not reported. With no predicate, the
// default, every query runs exactly as it would without this hook.
//
// Both functions here are package-level rather than methods so the
// facade's Tree alias does not publish them.

// SetSkip makes t skip every item for which skip reports true, or, with
// skip nil, no item. The predicate is read by every query, so set it
// before queries run; it may read state the caller changes between
// queries, as long as no query runs while it changes.
func SetSkip[T any](t *Tree[T], skip func(T) bool) { t.skip = skip }

// RootPoints returns the vantage points of t's root, one or two, or
// nothing for an empty tree. They are items of t, skipped or not, and the
// caller must not modify the slice.
func RootPoints[T any](t *Tree[T]) []T {
	if len(t.nodes) == 0 {
		return nil
	}
	return t.points(0)
}

// keeps reports whether x may be reported: t skips nothing, or not x.
func (t *Tree[T]) keeps(x T) bool { return t.skip == nil || !t.skip(x) }
