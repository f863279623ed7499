package index

// SearchStats is the per-query filtering breakdown shared by every
// structure that offers stats query variants (RangeWithStats,
// KNNWithStats). It is defined once here — the index packages alias it
// — so the batch executor and the experiment harness can aggregate
// stats from any structure uniformly.
//
// Not every structure populates every field: only the mvp-tree family
// fills FilteredByD, FilteredByPath and FilteredByCascade (the paper's
// Observation 2 made measurable), and only a quantized tree or scan
// FilteredByQuantized. A classic vp-tree is that family's tree with nothing
// stored: its leaves are a vantage point each, so every distance it pays
// is counted under VantagePoints and Candidates stays zero.
type SearchStats struct {
	// NodesVisited and LeavesVisited count tree nodes entered.
	NodesVisited  int
	LeavesVisited int
	// ShellsPruned counts child slots excluded by cutoff tests.
	ShellsPruned int
	// Candidates counts leaf data points considered.
	Candidates int
	// FilteredByD counts candidates excluded by stored exact distances
	// to the leaf's own vantage points (the paper's D1/D2 arrays), and in
	// the dynamic store's buffer by its items' stored distances to the
	// tree root's vantage points.
	FilteredByD int
	// FilteredByPath counts candidates excluded by a retained PATH
	// distance — the filter only the mvp-tree family has.
	FilteredByPath int
	// FilteredByCascade counts candidates excluded by the bound cascade
	// (internal/cascade): the triangle-inequality lower bound over the
	// structure's pivots, whose distances the query paid up front
	// (counted under VantagePoints). Zero unless the structure has
	// cascading enabled.
	FilteredByCascade int
	// Computed counts real distance computations against leaf data
	// points; VantagePoints counts those against vantage points. Their
	// sum equals the Counter delta for the query — including on
	// budget-terminated queries, whose traversals debit the budget
	// before computing and so never over- or under-count.
	Computed      int
	VantagePoints int
	// Results is the answer-set size.
	Results int
	// Approximated is 1 when the query's answer is not certified
	// exact: ε > 0 was requested or the distance budget ran out.
	// Summing over a batch gives the number of approximate answers.
	Approximated int
	// BudgetExhausted is 1 when the distance budget cut the traversal
	// short, i.e. the answer is partial.
	BudgetExhausted int
	// FilteredByQuantized counts candidates whose exact evaluation the
	// quantized pre-filter skipped (internal/quant): its lower bound
	// certified the distance exceeds the threshold. A skipped candidate
	// is still charged to Computed, as the abandoned kernel call it
	// replaces would have been, so this is the one field the filter
	// moves. Zero unless the structure has quantization enabled.
	FilteredByQuantized int
}

// Distances is the query's total distance computations — Computed plus
// VantagePoints — which equals the structure's Counter delta for the
// query.
func (s SearchStats) Distances() int64 {
	return int64(s.Computed) + int64(s.VantagePoints)
}

// Add accumulates b into s field by field, for aggregating per-query
// stats into batch or per-worker totals.
func (s *SearchStats) Add(b SearchStats) {
	s.NodesVisited += b.NodesVisited
	s.LeavesVisited += b.LeavesVisited
	s.ShellsPruned += b.ShellsPruned
	s.Candidates += b.Candidates
	s.FilteredByD += b.FilteredByD
	s.FilteredByPath += b.FilteredByPath
	s.FilteredByCascade += b.FilteredByCascade
	s.Computed += b.Computed
	s.VantagePoints += b.VantagePoints
	s.Results += b.Results
	s.Approximated += b.Approximated
	s.BudgetExhausted += b.BudgetExhausted
	s.FilteredByQuantized += b.FilteredByQuantized
}
