// Package dynamic addresses the open problem the paper closes with
// (§6): "handling update operations (insertion and deletion) without
// major restructuring, and without violating the balanced structure of
// the tree". It wraps the static mvp-tree in an overflow buffer and
// tombstones, rebuilt by a rent-or-buy rule:
//
//   - insertions accumulate in an overflow buffer that every query scans
//     alongside the tree. Insert measures each item's distances to the
//     pivots, the one or two vantage points of the tree's root; once the
//     buffer holds more items than there are pivots, a query measures its
//     own distances to them and, by the triangle inequality, measures
//     only the buffered items that could be in its answer;
//   - deletions tombstone their targets (delete-by-value: every stored
//     item at distance zero from the argument): the tree's own
//     tombstones (mvp.Remove, the range query at r = 0 marking what it
//     finds), which it never measures as leaf candidates and never
//     returns, and a buffered target leaves the buffer;
//   - every distance a query or a delete spends on the buffer — its
//     pivot distances and the buffered items it measures — is waste (the
//     rent); the first write after the waste since the last build reaches
//     that build's cost (the price of buying) rebuilds the tree from
//     scratch over the live items.
//
// That is the ski-rental rule, and it is 2-competitive: the waste is
// what keeping the buffer costs the reads and deletes, which a rebuild
// would spare them, and between two rebuilds the store wastes one
// build's cost, and what the reads since the last write add past it. So
// against any schedule of rebuilds chosen knowing the operations to come
// — rebuilding at writes, as the store does, and priced at the last
// build's cost — it spends at most twice the distances on the buffer and
// the rebuilds together, whatever the mix of reads and writes, where a
// fixed fraction of the live set is right for one mix only. An insert's
// pivot distances are not waste: every schedule pays them, as a rebuild
// does not spare the inserts after it. Tombstones are not waste either,
// being measured by nothing but the vantage points that steer the
// descent. Reads alone never rebuild. The waste must also reach the
// number of live items, so a store whose build cost nothing does not
// rebuild at every write, and a cap rebuilds when the buffered and
// tombstoned items outnumber the tree's live ones, so a phase of writes
// alone cannot leave a long buffer for the reads after it. Every query
// still runs against a balanced mvp-tree plus a linear tail — the
// balance guarantee the paper asks for.
//
// The tree indexes the items themselves, and its tombstones are a bit
// per slot of its arenas, so deleting needs no identity beyond the
// metric's and works over arbitrary (non-comparable) item types.
//
// The store is safe for concurrent use: queries take a read lock, and
// only add to the waste, which is atomic; Insert, Delete and Save take
// the write lock.
package dynamic

import (
	"math"
	"sync"
	"sync/atomic"

	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/obs"
)

// SearchStats is the shared per-query filtering breakdown
// (index.SearchStats), aliased here so dynamic call sites match the
// other index packages. A store query reports the underlying mvp-tree's
// breakdown plus the overflow buffer's tail: the query's distances to the
// pivots add to VantagePoints, and each buffered item it considers adds
// one to Candidates and one to FilteredByD, where the pivots' bounds rule
// it out, or to Computed, where it is measured.
type SearchStats = index.SearchStats

// Options configure a dynamic store.
type Options struct {
	// Tree configures the underlying mvp-trees built at each rebuild.
	// When to rebuild is the store's rule and has no option.
	Tree mvp.Options
}

// Store is a dynamic similarity index over a mutable item set.
//
// Store is safe for concurrent use: an RWMutex lets any number of
// queries (Range, KNN, Len, ...) run concurrently with each other while
// Insert, Delete and Save — which mutate the overflow buffer and
// tombstones and may trigger a full rebuild — take the write side and
// run exclusively. Concurrent readers share no mutable state beyond the
// atomic distance Counter and the atomic waste.
type Store[T any] struct {
	// Hooks let callers attach an Observer and/or Tracer; with neither
	// attached the query paths pay only nil checks. Attach before
	// serving queries — the hook fields themselves are not guarded by
	// mu. The hooks span the whole store query (tree plus buffer tail);
	// the inner tree's own hooks stay unset.
	obs.Hooks

	opts Options

	// mu guards every field below except dist, whose count is atomic, and
	// waste.
	mu sync.RWMutex

	live     int          // number of live items
	tree     *mvp.Tree[T] // over the items live at the last rebuild; holds the tombstones
	treeDead int          // tombstoned items inside the tree
	buffer   []T          // inserted since the last rebuild; all live, Delete drops the others

	// pivots are the tree root's vantage points (mvp.RootPoints), and
	// pdist the buffered items' distances to them, parallel to buffer:
	// buffer[i]'s to pivots[j] at pdist[i][j], NaN past the pivots.
	pivots []T
	pdist  [][2]float64

	dist     *metric.Counter[T]
	rebuilds int
	seq      uint64 // construction seed sequence

	// cost is what the last build measured, or for a loaded tree what
	// building it would: the price of a rebuild. waste is what the buffer
	// has cost the queries and deletes since, in distances (maybeRebuild);
	// queries add to it under the read lock.
	cost  int64
	waste atomic.Int64
}

var _ index.StatsIndex[int] = (*Store[int])(nil) // Store[T] satisfies StatsIndex[T]

// New builds a dynamic store over the initial items. The store's counter
// is metric.NewCounter(dist), so a registered metric brings its bounded
// and row kernels to every query, delete and rebuild.
func New[T any](initial []T, dist metric.DistanceFunc[T], opts Options) (*Store[T], error) {
	s := &Store[T]{opts: opts, dist: metric.NewCounter(dist)}
	if err := s.build(initial); err != nil {
		return nil, err
	}
	return s, nil
}

// Len reports the number of live items.
func (s *Store[T]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// DistanceCount reports the total metric invocations made by the store,
// including rebuilds.
func (s *Store[T]) DistanceCount() int64 { return s.dist.Count() }

// Rebuilds reports how many times the underlying tree has been rebuilt
// (the initial construction counts as one).
func (s *Store[T]) Rebuilds() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rebuilds
}

// Buffered reports the current overflow-buffer size (diagnostics).
func (s *Store[T]) Buffered() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.buffer)
}

// Insert adds one item. It measures the item's distances to the pivots
// and nothing else, unless the rebuild rule fires (maybeRebuild).
func (s *Store[T]) Insert(item T) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pd := [2]float64{math.NaN(), math.NaN()}
	for j, p := range s.pivots {
		pd[j] = s.dist.Distance(item, p)
	}
	s.pdist = append(s.pdist, pd)
	s.buffer = append(s.buffer, item)
	s.live++
	return s.maybeRebuild()
}

// Delete removes every live item at distance zero from item
// (delete-by-value, the only identity a metric space offers) and
// reports how many were removed.
func (s *Store[T]) Delete(item T) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := mvp.Remove(s.tree, item)
	s.treeDead += removed
	// An item at distance zero is at item's distance from every
	// pivot: only a buffered item whose lower bound is zero is measured.
	var st SearchStats
	tl := s.startTail(item, index.SearchOptions{}, &st)
	kept, keptD := s.buffer[:0], s.pdist[:0]
	for i, e := range s.buffer {
		if lb, _ := tl.bounds(i); lb == 0 {
			tl.pay(&st)
			if s.dist.DistanceUpTo(item, e, 0) == 0 {
				removed++
				continue
			}
		}
		keptD = append(keptD, s.pdist[i])
		kept = append(kept, e)
	}
	s.waste.Add(st.Distances())
	clear(s.buffer[len(kept):]) // let go of the items taken out
	s.buffer, s.pdist = kept, keptD
	s.live -= removed
	return removed, s.maybeRebuild()
}

// maybeRebuild is the rent-or-buy rule, run after every write: rebuild
// once the waste since the last build has reached that build's cost, and
// the number of live items — the floor that keeps a store whose build
// cost little from rebuilding at every write — or once the buffered and
// tombstoned items outnumber the tree's live ones. A store with neither
// has nothing a rebuild would fold in.
func (s *Store[T]) maybeRebuild() error {
	stale := len(s.buffer) + s.treeDead
	if stale == 0 {
		return nil
	}
	if s.waste.Load() < max(s.cost, int64(s.live)) && stale <= s.live-len(s.buffer) {
		return nil
	}
	return s.rebuild()
}

// rebuild constructs a fresh balanced tree over the live items: the
// tree's, which it hands back in node order without the tombstoned, then
// the buffer's in the order they were inserted. So the tree built is a
// function of the tree and the buffer before it and nothing else — of the
// operations so far, and the same for a store and the one loaded from
// what it saved.
func (s *Store[T]) rebuild() error {
	return s.build(append(s.tree.Items(), s.buffer...))
}

// build makes the store a tree over live and nothing else: no
// tombstones, an empty buffer.
func (s *Store[T]) build(live []T) error {
	opts := s.opts.Tree
	opts.Seed += s.seq
	tree, st, err := mvp.NewWithStats(live, s.dist, opts)
	if err != nil {
		return err
	}
	s.seq++
	s.adopt(tree, st.Distances)
	return nil
}

// adopt makes tree, which holds no tombstones, all the store holds; cost
// is what building it measured. Its root's vantage points are the
// buffer's pivots.
func (s *Store[T]) adopt(tree *mvp.Tree[T], cost int64) {
	s.tree, s.treeDead = tree, 0
	s.pivots = mvp.RootPoints(tree)
	s.cost = cost
	s.waste.Store(0)
	s.live = tree.Len()
	clear(s.buffer)
	s.buffer, s.pdist = s.buffer[:0], s.pdist[:0]
	s.rebuilds++
}

var _ index.Searcher[int] = (*Store[int])(nil)

// Search is the store's one query implementation (index.Searcher).
// Epsilon and Budget are forwarded to the underlying mvp-tree; the
// overflow buffer's tail then spends whatever budget the tree left, its
// pivot distances first (ε does not apply to the tail — every buffered
// item it measures is measured exactly). With zero options the query is
// exact. Bound is not supported by the store and is ignored.
func (s *Store[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		return s.knn(req.Point, req.K, req.Opts)
	}
	return s.rangeSearch(req.Point, req.Radius, req.Opts)
}

// tail is one query's pass over the overflow buffer: the distances its
// budget has left, and its own distances to the pivots beside the
// buffered items' (Store.pdist) — NaN past the pivots, and all NaN when
// it measured none.
type tail struct {
	remaining int64
	qd        [2]float64 // d(q, pivots[j])
	pdist     [][2]float64
}

// startTail opens the buffer's tail of the query (q, o), whose tree
// phase st reports. When the buffer holds more items than there are
// pivots and the budget has room for them, the query measures its
// distances to the pivots, counted in st under VantagePoints, and the
// tail filters by them (bounds); otherwise it scans the buffer unfiltered.
func (s *Store[T]) startTail(q T, o index.SearchOptions, st *SearchStats) tail {
	tl := tail{remaining: math.MaxInt64, qd: [2]float64{math.NaN(), math.NaN()}, pdist: s.pdist}
	if o.Budget > 0 {
		tl.remaining = max(o.Budget-st.Distances(), 0)
	}
	if n := len(s.pivots); len(s.buffer) > n && tl.remaining >= int64(n) {
		for j, p := range s.pivots {
			tl.qd[j] = s.dist.Distance(q, p)
		}
		tl.remaining -= int64(n)
		st.VantagePoints += n
	}
	return tl
}

// bounds returns lower and upper bounds on the distance from the query to
// buffered item i by the triangle inequality over the pivots the tail
// measured: the largest |d(q,p) − d(x,p)| and the smallest
// d(q,p) + d(x,p), a NaN moving neither. With none measured they are 0
// and +Inf. It runs on every buffered item a query reaches, so it is
// kept small enough to inline.
func (tl *tail) bounds(i int) (lb, ub float64) {
	ub = inf
	for j, d := range tl.pdist[i] {
		if b := math.Abs(tl.qd[j] - d); b > lb {
			lb = b
		}
		if b := tl.qd[j] + d; b < ub {
			ub = b
		}
	}
	return lb, ub
}

// inf is +Inf in a variable: the call math.Inf(1) would cost bounds its
// inlining.
var inf = math.Inf(1)

// pay charges st one buffered item's distance — a candidate computed —
// and reports whether the budget had room for it; when it had not, the
// answer is marked cut short.
func (tl *tail) pay(st *SearchStats) bool {
	if tl.remaining == 0 {
		st.BudgetExhausted = 1
		return false
	}
	tl.remaining--
	st.Candidates++
	st.Computed++
	return true
}

// filtered counts in st a buffered item the pivots' bounds ruled out.
func filtered(st *SearchStats) {
	st.Candidates++
	st.FilteredByD++
}

// endTail closes the tail of a query whose tree phase reported tree: what
// the tail measured is added to the store's waste, and an answer that ε
// or the budget may have cut short is marked approximate.
func (s *Store[T]) endTail(o index.SearchOptions, tree SearchStats, st *SearchStats) {
	s.waste.Add(st.Distances() - tree.Distances())
	if st.BudgetExhausted > 0 || o.Epsilon > 0 {
		st.Approximated = 1
	}
}

// Range returns every live item within distance r of q. Any number of
// Range/KNN calls may run concurrently; they block only while an update
// holds the write lock. It is a wrapper over Search, so there is
// exactly one query implementation.
func (s *Store[T]) Range(q T, r float64) []T {
	return s.Search(index.RangeQuery(q, r)).Items
}

// RangeWithStats is Range plus the per-query breakdown: the underlying
// tree's stats with the overflow buffer's tail folded in.
func (s *Store[T]) RangeWithStats(q T, r float64) ([]T, SearchStats) {
	res := s.Search(index.RangeQuery(q, r))
	return res.Items, res.Stats
}

func (s *Store[T]) rangeSearch(q T, r float64, o index.SearchOptions) index.Result[T] {
	span := s.StartQuery(obs.KindRange)
	var st SearchStats
	if r < 0 {
		span.Done(&st)
		return index.Result[T]{Stats: st}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	res := s.tree.Search(index.Query[T]{Point: q, Radius: r,
		Opts: index.SearchOptions{Epsilon: o.Epsilon, Budget: o.Budget}})
	st = res.Stats
	out := res.Items
	tl := s.startTail(q, o, &st)
	for i, e := range s.buffer {
		if lb, _ := tl.bounds(i); lb > r {
			filtered(&st)
			continue
		}
		if !tl.pay(&st) {
			break
		}
		// Membership only, so the kernel may abandon at r.
		if s.dist.DistanceUpTo(q, e, r) <= r {
			out = append(out, e)
		}
	}
	s.endTail(o, res.Stats, &st)
	st.Results = len(out)
	span.Done(&st)
	return index.Result[T]{Items: out, Stats: st}
}

// KNN returns the k live items nearest to q in ascending distance
// order. It is KNNWithStats without the stats.
func (s *Store[T]) KNN(q T, k int) []index.Neighbor[T] {
	return s.knn(q, k, index.SearchOptions{}).Neighbors
}

// KNNWithStats is KNN plus the per-query breakdown (not through
// Search, which reads k <= 0 as a range request).
func (s *Store[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], SearchStats) {
	res := s.knn(q, k, index.SearchOptions{})
	return res.Neighbors, res.Stats
}

func (s *Store[T]) knn(q T, k int, o index.SearchOptions) index.Result[T] {
	span := s.StartQuery(obs.KindKNN)
	var st SearchStats
	if k <= 0 {
		span.Done(&st)
		return index.Result[T]{Stats: st}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.live == 0 {
		span.Done(&st)
		return index.Result[T]{Stats: st}
	}
	// No answer is longer than the live set, so a k beyond it — a
	// request's word — does not size a heap.
	k = min(k, s.live)
	res := s.tree.Search(index.Query[T]{Point: q, K: k,
		Opts: index.SearchOptions{Epsilon: o.Epsilon, Budget: o.Budget}})
	st = res.Stats
	best := heapx.NewKBest[T](k, k)
	for _, nb := range res.Neighbors {
		best.Push(nb.Item, nb.Dist)
	}
	tl := s.startTail(q, o, &st)
	for i, e := range s.buffer {
		// Measured while the heap fills, then only below the k-th best.
		if lb, _ := tl.bounds(i); !best.Accepts(lb) {
			filtered(&st)
			continue
		}
		if !tl.pay(&st) {
			break
		}
		// Push ignores anything ≥ the current k-th best: abandon at τ.
		best.Push(e, s.dist.DistanceUpTo(q, e, best.Threshold()))
	}
	s.endTail(o, res.Stats, &st)
	out := best.Sorted()
	st.Results = len(out)
	span.Done(&st)
	return index.Result[T]{Neighbors: out, Stats: st}
}
