package index

// Capabilities is the one-call capability report for an index: which
// query surfaces it supports, as typed handles so a caller probes once
// instead of chaining type assertions at every call site.
type Capabilities[T any] struct {
	// Stats is the index viewed through StatsIndex, nil when the index
	// offers no stats variants.
	Stats StatsIndex[T]
	// Search is the unified query entry point, nil when the index
	// predates it (external implementations of Index only).
	Search Searcher[T]
	// Batch is non-nil when the index can answer a query group with one
	// shared traversal (SearchBatch).
	Batch BatchSearcher[T]
}

// CapabilitiesOf probes idx once and returns its capability report —
// the single place in the repository that type-asserts for query
// surfaces.
func CapabilitiesOf[T any](idx Index[T]) Capabilities[T] {
	var c Capabilities[T]
	c.Stats, _ = idx.(StatsIndex[T])
	c.Search, _ = idx.(Searcher[T])
	c.Batch, _ = idx.(BatchSearcher[T])
	return c
}
