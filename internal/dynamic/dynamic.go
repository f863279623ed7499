// Package dynamic addresses the open problem the paper closes with
// (§6): "handling update operations (insertion and deletion) without
// major restructuring, and without violating the balanced structure of
// the tree". It wraps the static mvp-tree in an overflow buffer and
// tombstones, rebuilt by a rent-or-buy rule:
//
//   - insertions accumulate in an overflow buffer that every query scans
//     linearly alongside the tree;
//   - deletions tombstone their targets (delete-by-value: every stored
//     item at distance zero from the argument);
//   - every distance a query or a delete spends on the buffer, and its
//     share of the tree's distances that tombstoned items drew, is waste
//     (the rent); the first write after the waste since the last build
//     reaches that build's cost (the price of buying) rebuilds the tree
//     from scratch over the live items.
//
// That is the ski-rental rule, and it is 2-competitive: between two
// rebuilds the store wastes one build's cost, and what the reads since
// the last write add past it, so against any schedule of rebuilds chosen
// knowing the operations to come — rebuilding at writes, as the store
// does, and priced at the last build's cost — it spends at most twice
// the distances on the buffer, the tombstones and the rebuilds together,
// whatever the mix of reads and writes, where a fixed fraction of the
// live set is right for one mix only. Reads alone never rebuild. The waste must also reach the number of live items, so a store
// whose build cost nothing does not rebuild at every write, and a cap
// rebuilds when the buffered and tombstoned items outnumber the tree's
// live ones, so a phase of writes alone cannot leave a long buffer for
// the reads after it. Every query still runs against a balanced mvp-tree
// plus a linear tail — the balance guarantee the paper asks for.
//
// The tree indexes the items themselves, each paired with a small
// integer id whose one use is to index the tombstones, which is what
// makes deleting possible over arbitrary (non-comparable) item types.
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
// breakdown plus the overflow buffer's linear tail: each live buffered
// item adds one to both Candidates and Computed.
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

	// alive is the tombstones, by id: ids are handed out in insertion
	// order and renumbered from zero at every rebuild. Every id below
	// len(alive) is held by the tree or the buffer, or is a buffered
	// item's that Delete took out.
	alive []bool
	live  int // number of alive items

	tree     *mvp.Tree[entry[T]] // over the items live at the last rebuild
	treeDead int                 // tombstoned items inside the tree
	buffer   []entry[T]          // inserted since the last rebuild; all live, Delete drops the others

	dist     *metric.Counter[entry[T]]
	rebuilds int
	seq      uint64 // construction seed sequence

	// cost is what the last build measured, or for a loaded tree what
	// building it would: the price of a rebuild. waste is what the buffer
	// and the tombstones have cost since, in distances (maybeRebuild);
	// queries add to it under the read lock.
	cost  int64
	waste atomic.Int64
}

// entry is what the tree and the buffer hold: an item and its index into
// alive. A query is an entry without an id, which nothing reads: the
// metric sees the items alone.
type entry[T any] struct {
	item T
	id   int32
}

var _ index.StatsIndex[int] = (*Store[int])(nil) // Store[T] satisfies StatsIndex[T]

// New builds a dynamic store over the initial items.
func New[T any](initial []T, dist metric.DistanceFunc[T], opts Options) (*Store[T], error) {
	s := &Store[T]{opts: opts}
	s.bindMetric(dist)
	entries := make([]entry[T], len(initial))
	for i, it := range initial {
		entries[i].item = it
	}
	if err := s.build(entries); err != nil {
		return nil, err
	}
	return s, nil
}

// bindMetric makes the store's counter the item metric dist over
// entries. That closure is not a registered top-level function, so
// NewCounter finds no kernel for it; the item metric's own registered
// ones (if any) are attached the same way, or every DistanceUpTo of the
// tree and of the buffer-tail scans would run the exact kernel, and every
// row of a rebuild the pair loop.
func (s *Store[T]) bindMetric(dist metric.DistanceFunc[T]) {
	s.dist = metric.NewCounter(func(a, b entry[T]) float64 { return dist(a.item, b.item) })
	kernels := metric.NewCounter(dist)
	if bounded := kernels.Bounded(); bounded != nil {
		s.dist.SetBounded(func(a, b entry[T], bound float64) float64 {
			return bounded(a.item, b.item, bound)
		})
	}
	if row := kernels.Row(); row != nil {
		s.dist.SetRow(gatherRow(row))
	}
}

// rowScratch is what gatherRow hands the item kernel: a row's items, and
// the ids that name them there, 0 to len-1.
type rowScratch[T any] struct {
	items []T
	ids   []int32
}

// gatherRow adapts the item metric's row kernel to entries: it gathers
// the items the ids pick into scratch of its own, reused across rows and
// across the build's workers through a pool, and measures them in place
// there.
func gatherRow[T any](row metric.RowDistanceFunc[T]) metric.RowDistanceFunc[entry[T]] {
	var pool sync.Pool
	return func(p entry[T], entries []entry[T], ids []int32, out []float64) {
		sc, _ := pool.Get().(*rowScratch[T])
		if sc == nil {
			sc = new(rowScratch[T])
		}
		for len(sc.ids) < len(ids) {
			sc.ids = append(sc.ids, int32(len(sc.ids)))
		}
		for _, id := range ids {
			sc.items = append(sc.items, entries[id].item)
		}
		row(p.item, sc.items, sc.ids[:len(ids)], out)
		clear(sc.items) // hold no item past its row
		sc.items = sc.items[:0]
		pool.Put(sc)
	}
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

// Insert adds one item. It measures nothing, unless the rebuild rule
// fires (maybeRebuild).
func (s *Store[T]) Insert(item T) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buffer = append(s.buffer, entry[T]{item, int32(len(s.alive))})
	s.alive = append(s.alive, true)
	s.live++
	return s.maybeRebuild()
}

// Delete removes every live item at distance zero from item
// (delete-by-value, the only identity a metric space offers) and
// reports how many were removed.
func (s *Store[T]) Delete(item T) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	probe := entry[T]{item: item}
	res := s.tree.Search(index.RangeQuery(probe, 0))
	s.waste.Add(s.deadShare(res.Stats) + int64(len(s.buffer)))
	for _, e := range res.Items {
		if s.alive[e.id] {
			s.alive[e.id] = false
			s.treeDead++
			removed++
		}
	}
	kept := s.buffer[:0]
	for _, e := range s.buffer {
		if s.dist.DistanceUpTo(probe, e, 0) == 0 {
			s.alive[e.id] = false
			removed++
			continue
		}
		kept = append(kept, e)
	}
	clear(s.buffer[len(kept):]) // let go of the items taken out
	s.buffer = kept
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

// deadShare is the waste of a tree query that reports st: the share of
// its candidates' distances the tombstoned items drew, as their share of
// the tree, in integers so the rule fires at the same write on every run.
func (s *Store[T]) deadShare(st SearchStats) int64 {
	if s.treeDead == 0 {
		return 0
	}
	return int64(st.Computed) * int64(s.treeDead) / int64(s.tree.Len())
}

// rebuild constructs a fresh balanced tree over the live items. The tree
// hands its items back in node order, so they are scattered by id first:
// mvp.New then receives them in the order they were inserted, and the
// tree built is a function of the operations so far and nothing else.
func (s *Store[T]) rebuild() error {
	byID := make([]entry[T], len(s.alive))
	for _, e := range s.tree.Items() {
		byID[e.id] = e
	}
	for _, e := range s.buffer {
		byID[e.id] = e
	}
	live := byID[:0]
	for id, a := range s.alive {
		if a {
			live = append(live, byID[id])
		}
	}
	return s.build(live)
}

// build makes the store a tree over live and nothing else: the entries
// are numbered as they come, no tombstones, an empty buffer.
func (s *Store[T]) build(live []entry[T]) error {
	for i := range live {
		live[i].id = int32(i)
	}
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

// adopt makes tree, whose entries carry the ids below its length, each
// once, all the store holds; cost is what building it measured.
func (s *Store[T]) adopt(tree *mvp.Tree[entry[T]], cost int64) {
	s.tree, s.treeDead = tree, 0
	s.cost = cost
	s.waste.Store(0)
	s.live = tree.Len()
	s.alive = make([]bool, s.live)
	for i := range s.alive {
		s.alive[i] = true
	}
	clear(s.buffer)
	s.buffer = s.buffer[:0]
	s.rebuilds++
}

var _ index.Searcher[int] = (*Store[int])(nil)

// Search is the store's one query implementation (index.Searcher).
// Epsilon and Budget are forwarded to the underlying mvp-tree; the
// overflow buffer's linear tail then spends whatever budget the tree
// left (ε does not apply to a plain scan — every live buffered item the
// budget allows is checked exactly). With zero options the query is
// exact. Bound is not supported by the store and is ignored.
func (s *Store[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		return s.knn(req.Point, req.K, req.Opts)
	}
	return s.rangeSearch(req.Point, req.Radius, req.Opts)
}

// tail hands visit the buffered entries, all of them unless o.Budget is
// set and what the tree phase left of it runs out first, counts each in
// st — one candidate, one distance computed — and marks an answer that ε
// or the budget may have cut short. tree is the tree phase's stats: what
// the query wasted on the tombstones there and on the buffer here is
// added to the store's waste.
func (s *Store[T]) tail(o index.SearchOptions, tree SearchStats, st *SearchStats, visit func(entry[T])) {
	remaining := int64(math.MaxInt64)
	if o.Budget > 0 {
		remaining = max(o.Budget-st.Distances(), 0)
	}
	for _, e := range s.buffer {
		if remaining == 0 {
			st.BudgetExhausted = 1
			break
		}
		remaining--
		st.Candidates++
		st.Computed++
		visit(e)
	}
	s.waste.Add(s.deadShare(tree) + int64(st.Computed-tree.Computed))
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
// tree's stats with the overflow buffer's linear tail folded in.
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
	probe := entry[T]{item: q}
	res := s.tree.Search(index.Query[entry[T]]{Point: probe, Radius: r,
		Opts: index.SearchOptions{Epsilon: o.Epsilon, Budget: o.Budget}})
	st = res.Stats
	var out []T
	for _, e := range res.Items {
		if s.alive[e.id] {
			out = append(out, e.item)
		}
	}
	s.tail(o, res.Stats, &st, func(e entry[T]) {
		// Membership only, so the kernel may abandon at r.
		if s.dist.DistanceUpTo(probe, e, r) <= r {
			out = append(out, e.item)
		}
	})
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
	probe := entry[T]{item: q}
	// No answer is longer than the live set, so a k beyond it — a
	// request's word — neither sizes a heap nor overflows the sum below.
	k = min(k, s.live)
	// The tree may return tombstoned items; ask for enough extras to
	// guarantee k live ones among the answers.
	res := s.tree.Search(index.Query[entry[T]]{Point: probe, K: k + s.treeDead,
		Opts: index.SearchOptions{Epsilon: o.Epsilon, Budget: o.Budget}})
	st = res.Stats
	best := heapx.NewKBest[T](k, k)
	for _, nb := range res.Neighbors {
		if s.alive[nb.Item.id] {
			best.Push(nb.Item.item, nb.Dist)
		}
	}
	s.tail(o, res.Stats, &st, func(e entry[T]) {
		// Push ignores anything ≥ the current k-th best: abandon at τ.
		best.Push(e.item, s.dist.DistanceUpTo(probe, e, best.Threshold()))
	})
	out := best.Sorted()
	st.Results = len(out)
	span.Done(&st)
	return index.Result[T]{Neighbors: out, Stats: st}
}
