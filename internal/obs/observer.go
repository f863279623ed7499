package obs

import (
	"runtime"
	"sync/atomic"
	"time"

	"mvptree/internal/histogram"
	"mvptree/internal/index"
)

// Observer aggregates per-query telemetry — latency and distance-count
// histograms plus the summed index.SearchStats breakdown — across
// concurrent queries without locks. Recording is sharded: each query
// lands on one shard (round-robin by default, or pinned by the caller
// via ObserveShard, which the batch executor uses to make per-worker
// attribution deterministic) and every shard field is a plain atomic
// add, so recorders never contend on a mutex and scale with cores.
//
// Snapshot merges the shards into one plain value. Totals are exact
// regardless of sharding: because histogram merging is associative and
// every field is a sum (or max), the snapshot's distance total equals
// the atomic metric.Counter delta for the same set of queries, for any
// shard or worker count.
type Observer struct {
	shards []shard
	mask   uint64
	cursor atomic.Uint64
}

// shard is one lock-free slice of the aggregate. All fields are atomic
// adds except the maxima, which use a CAS loop.
type shard struct {
	queries [numKinds]atomic.Int64
	latency [numKinds]atomicLog2
	dist    atomicLog2
	search  atomicSearchStats
	// quantPruned lives beside — not inside — the SearchStats mirror:
	// the quantized pre-filter changes no per-query stat, so its count
	// arrives through ObserveQuantPruned rather than Observe.
	quantPruned atomic.Int64
	// pad spaces shards a cache line apart so adjacent shards' hot
	// counters do not false-share.
	_ [64]byte
}

// atomicLog2 is the recorder form of histogram.Log2.
type atomicLog2 struct {
	counts [histogram.Log2Buckets]atomic.Int64
	n      atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

func (h *atomicLog2) add(v int64) {
	h.counts[histogram.Log2Bucket(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (h *atomicLog2) snapshot() histogram.Log2 {
	var out histogram.Log2
	for b := range h.counts {
		out.Counts[b] = h.counts[b].Load()
	}
	out.N = h.n.Load()
	out.Sum = h.sum.Load()
	out.Max = h.max.Load()
	return out
}

// atomicSearchStats mirrors index.SearchStats field for field.
type atomicSearchStats struct {
	nodesVisited      atomic.Int64
	leavesVisited     atomic.Int64
	shellsPruned      atomic.Int64
	candidates        atomic.Int64
	filteredByD       atomic.Int64
	filteredByPath    atomic.Int64
	filteredByCascade atomic.Int64
	computed          atomic.Int64
	vantagePoints     atomic.Int64
	results           atomic.Int64
	approximated      atomic.Int64
	budgetExhausted   atomic.Int64
}

func (s *atomicSearchStats) add(b index.SearchStats) {
	s.nodesVisited.Add(int64(b.NodesVisited))
	s.leavesVisited.Add(int64(b.LeavesVisited))
	s.shellsPruned.Add(int64(b.ShellsPruned))
	s.candidates.Add(int64(b.Candidates))
	s.filteredByD.Add(int64(b.FilteredByD))
	s.filteredByPath.Add(int64(b.FilteredByPath))
	s.filteredByCascade.Add(int64(b.FilteredByCascade))
	s.computed.Add(int64(b.Computed))
	s.vantagePoints.Add(int64(b.VantagePoints))
	s.results.Add(int64(b.Results))
	s.approximated.Add(int64(b.Approximated))
	s.budgetExhausted.Add(int64(b.BudgetExhausted))
}

func (s *atomicSearchStats) snapshot() SearchTotals {
	return SearchTotals{
		NodesVisited:      s.nodesVisited.Load(),
		LeavesVisited:     s.leavesVisited.Load(),
		ShellsPruned:      s.shellsPruned.Load(),
		Candidates:        s.candidates.Load(),
		FilteredByD:       s.filteredByD.Load(),
		FilteredByPath:    s.filteredByPath.Load(),
		FilteredByCascade: s.filteredByCascade.Load(),
		Computed:          s.computed.Load(),
		VantagePoints:     s.vantagePoints.Load(),
		Results:           s.results.Load(),
		Approximated:      s.approximated.Load(),
		BudgetExhausted:   s.budgetExhausted.Load(),
	}
}

// NewObserver returns an Observer with at least the requested shard
// count (rounded up to a power of two so shard selection is a mask).
// shards <= 0 selects a default sized to GOMAXPROCS.
func NewObserver(shards int) *Observer {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Observer{shards: make([]shard, n), mask: uint64(n - 1)}
}

// Shards reports the shard count actually allocated.
func (o *Observer) Shards() int { return len(o.shards) }

// Observe records one completed query on a round-robin shard. Safe for
// concurrent use.
func (o *Observer) Observe(kind Kind, elapsed time.Duration, stats index.SearchStats) {
	o.record(&o.shards[o.cursor.Add(1)&o.mask], kind, elapsed, stats)
}

// ObserveShard records one completed query on shard i (mod the shard
// count). Pinning queries to shards — as the batch executor does with
// its worker index — keeps per-shard content deterministic across runs.
// Safe for concurrent use as long as distinct goroutines use distinct
// shards or accept interleaved counts (totals are exact either way).
func (o *Observer) ObserveShard(i int, kind Kind, elapsed time.Duration, stats index.SearchStats) {
	o.record(&o.shards[uint64(i)&o.mask], kind, elapsed, stats)
}

// ObserveQuantPruned records n exact evaluations skipped by the
// quantized pre-filter. Safe for concurrent use; the count surfaces as
// Snapshot.Search.FilteredByQuantized.
func (o *Observer) ObserveQuantPruned(n int) {
	o.shards[o.cursor.Load()&o.mask].quantPruned.Add(int64(n))
}

func (o *Observer) record(s *shard, kind Kind, elapsed time.Duration, stats index.SearchStats) {
	s.queries[kind].Add(1)
	s.latency[kind].add(int64(elapsed))
	s.dist.add(int64(stats.Computed + stats.VantagePoints))
	s.search.add(stats)
}

// Snapshot merges every shard into one plain value. It is safe to call
// while queries record; the result is a consistent-enough view in the
// sense that every completed query is fully counted and totals are
// exact once recording quiesces.
func (o *Observer) Snapshot() Snapshot {
	var snap Snapshot
	for i := range o.shards {
		s := &o.shards[i]
		snap.Range.Queries += s.queries[KindRange].Load()
		snap.KNN.Queries += s.queries[KindKNN].Load()
		snap.Range.Latency.Merge(s.latency[KindRange].snapshot())
		snap.KNN.Latency.Merge(s.latency[KindKNN].snapshot())
		snap.DistanceHist.Merge(s.dist.snapshot())
		st := s.search.snapshot()
		st.FilteredByQuantized = s.quantPruned.Load()
		snap.Search.Add(st)
	}
	snap.finalize()
	return snap
}

// SearchTotals is the batch-level sum of index.SearchStats, widened to
// int64 so long-running services cannot overflow the per-query int
// fields.
type SearchTotals struct {
	NodesVisited      int64 `json:"nodes_visited"`
	LeavesVisited     int64 `json:"leaves_visited"`
	ShellsPruned      int64 `json:"shells_pruned"`
	Candidates        int64 `json:"candidates"`
	FilteredByD       int64 `json:"filtered_by_d"`
	FilteredByPath    int64 `json:"filtered_by_path"`
	FilteredByCascade int64 `json:"filtered_by_cascade"`
	// FilteredByQuantized counts exact evaluations skipped by the
	// quantized pre-filter (internal/quant). It has no SearchStats
	// counterpart — pruned candidates are still charged to Computed so
	// every other number is byte-identical with the filter on or off —
	// and is fed through Observer.ObserveQuantPruned instead of Observe.
	FilteredByQuantized int64 `json:"filtered_by_quantized"`
	Computed            int64 `json:"computed"`
	VantagePoints       int64 `json:"vantage_points"`
	Results             int64 `json:"results"`
	// Approximated counts queries whose answer was not certified
	// exact; BudgetExhausted counts queries the distance budget cut
	// short. Both sum per-query 0/1 flags.
	Approximated    int64 `json:"approximated"`
	BudgetExhausted int64 `json:"budget_exhausted"`
}

// Add accumulates b into s.
func (s *SearchTotals) Add(b SearchTotals) {
	s.NodesVisited += b.NodesVisited
	s.LeavesVisited += b.LeavesVisited
	s.ShellsPruned += b.ShellsPruned
	s.Candidates += b.Candidates
	s.FilteredByD += b.FilteredByD
	s.FilteredByPath += b.FilteredByPath
	s.FilteredByCascade += b.FilteredByCascade
	s.FilteredByQuantized += b.FilteredByQuantized
	s.Computed += b.Computed
	s.VantagePoints += b.VantagePoints
	s.Results += b.Results
	s.Approximated += b.Approximated
	s.BudgetExhausted += b.BudgetExhausted
}

// AddStats accumulates a per-query index.SearchStats into s.
// SearchStats has no quantized-prune field (see FilteredByQuantized),
// so that total is untouched.
func (s *SearchTotals) AddStats(b index.SearchStats) {
	s.NodesVisited += int64(b.NodesVisited)
	s.LeavesVisited += int64(b.LeavesVisited)
	s.ShellsPruned += int64(b.ShellsPruned)
	s.Candidates += int64(b.Candidates)
	s.FilteredByD += int64(b.FilteredByD)
	s.FilteredByPath += int64(b.FilteredByPath)
	s.FilteredByCascade += int64(b.FilteredByCascade)
	s.Computed += int64(b.Computed)
	s.VantagePoints += int64(b.VantagePoints)
	s.Results += int64(b.Results)
	s.Approximated += int64(b.Approximated)
	s.BudgetExhausted += int64(b.BudgetExhausted)
}

// KindSnapshot is the per-query-kind slice of a Snapshot.
type KindSnapshot struct {
	Queries int64          `json:"queries"`
	Latency histogram.Log2 `json:"latency_ns"`
	// LatencyTotal is the summed wall time; P50/P90/P99 are log₂-bucket
	// upper bounds of the latency quantiles.
	LatencyTotal time.Duration `json:"latency_total_ns"`
	P50          time.Duration `json:"latency_p50_ns"`
	P90          time.Duration `json:"latency_p90_ns"`
	P99          time.Duration `json:"latency_p99_ns"`
}

func (k *KindSnapshot) finalize() {
	k.LatencyTotal = time.Duration(k.Latency.Sum)
	k.P50 = time.Duration(k.Latency.Quantile(0.50))
	k.P90 = time.Duration(k.Latency.Quantile(0.90))
	k.P99 = time.Duration(k.Latency.Quantile(0.99))
}

// Snapshot is a merged, plain-value view of an Observer. Snapshots from
// different observers (or batches) combine with Merge.
type Snapshot struct {
	// Queries is the total query count; Distances the total distance
	// computations (Search.Computed + Search.VantagePoints), which
	// matches the atomic Counter delta for the same queries.
	Queries   int64 `json:"queries"`
	Distances int64 `json:"distances"`
	// Search sums every query's filtering breakdown.
	Search SearchTotals `json:"search"`
	// DistanceHist is the distribution of per-query distance counts.
	DistanceHist histogram.Log2 `json:"distance_hist"`
	Range        KindSnapshot   `json:"range"`
	KNN          KindSnapshot   `json:"knn"`
}

func (s *Snapshot) finalize() {
	s.Queries = s.Range.Queries + s.KNN.Queries
	s.Distances = s.Search.Computed + s.Search.VantagePoints
	s.Range.finalize()
	s.KNN.finalize()
}

// Merge accumulates o into s, recomputing the derived totals and
// quantiles. Merge is associative and commutative.
func (s *Snapshot) Merge(o Snapshot) {
	s.Search.Add(o.Search)
	s.DistanceHist.Merge(o.DistanceHist)
	s.Range.Queries += o.Range.Queries
	s.KNN.Queries += o.KNN.Queries
	s.Range.Latency.Merge(o.Range.Latency)
	s.KNN.Latency.Merge(o.KNN.Latency)
	s.finalize()
}
