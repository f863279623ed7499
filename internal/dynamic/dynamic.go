// Package dynamic addresses the open problem the paper closes with
// (§6): "handling update operations (insertion and deletion) without
// major restructuring, and without violating the balanced structure of
// the tree". It wraps the static mvp-tree in the classic amortized
// scheme:
//
//   - insertions accumulate in an overflow buffer that every query scans
//     linearly alongside the tree;
//   - deletions tombstone their targets (delete-by-value: every stored
//     item at distance zero from the argument);
//   - when buffered plus tombstoned items exceed a fraction of the live
//     set, the tree is rebuilt from scratch over the live items.
//
// The rebuild costs O(n log n) distance computations but is triggered
// only after Ω(n) updates, so updates cost amortized O(log n) distance
// computations while every query still runs against a balanced mvp-tree
// plus a small linear tail — the balance guarantee the paper asks for.
//
// Internally the store indexes small integer IDs and resolves them to
// items through its own table, which is what makes tombstoning possible
// over arbitrary (non-comparable) item types.
//
// The store is safe for concurrent use: queries take a read lock and
// resolve the query item through a private slot, while Insert, Delete
// and Save take the write lock.
package dynamic

import (
	"errors"
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
	Tree mvp.Options
	// RebuildFraction triggers a rebuild when
	// (buffered + tombstoned) > RebuildFraction × live items.
	// Default 0.25. Lower values keep queries closer to pure-tree
	// speed at the price of more frequent rebuilds.
	RebuildFraction float64
}

// Store is a dynamic similarity index over a mutable item set.
//
// Store is safe for concurrent use: an RWMutex lets any number of
// queries (Range, KNN, Len, ...) run concurrently with each other while
// Insert, Delete and Save — which mutate the overflow buffer and
// tombstones and may trigger a full rebuild — take the write side and
// run exclusively. Each in-flight query additionally resolves its query
// item through its own negative slot ID (see resolve), so concurrent
// readers share no mutable state beyond the atomic distance Counter.
type Store[T any] struct {
	// Hooks let callers attach an Observer and/or Tracer; with neither
	// attached the query paths pay only nil checks. Attach before
	// serving queries — the hook fields themselves are not guarded by
	// mu. The hooks span the whole store query (tree plus buffer tail);
	// the inner tree's own hooks stay unset.
	obs.Hooks

	opts Options

	// mu guards every field below except dist (whose count is atomic)
	// and the query-slot machinery (queries, slotSeq), which has its
	// own synchronization so readers holding only the read lock can
	// register their query items.
	mu sync.RWMutex

	items []T    // backing table; IDs index into it
	alive []bool // tombstones
	live  int    // number of alive items

	tree     *mvp.Tree[int] // over the IDs present at the last rebuild
	treeIDs  int            // how many IDs the tree covers: IDs < treeIDs
	treeDead int            // tombstoned IDs inside the tree
	buffer   []int          // IDs inserted since the last rebuild

	queries  sync.Map     // negative slot ID → in-flight query item (T)
	slotSeq  atomic.Int64 // allocator for query slots
	dist     *metric.Counter[int]
	itemDist metric.DistanceFunc[T]
	rebuilds int
	seq      uint64 // construction seed sequence
}

var _ index.StatsIndex[int] = (*Store[int])(nil) // Store[T] satisfies StatsIndex[T]

// New builds a dynamic store over the initial items.
func New[T any](items []T, dist metric.DistanceFunc[T], opts Options) (*Store[T], error) {
	if opts.RebuildFraction == 0 {
		opts.RebuildFraction = 0.25
	}
	if !validFraction(opts.RebuildFraction) {
		return nil, errors.New("dynamic: RebuildFraction must be positive and finite")
	}
	s := &Store[T]{opts: opts}
	s.bindMetric(dist)
	s.items = append(s.items, items...)
	s.alive = make([]bool, len(items))
	for i := range s.alive {
		s.alive[i] = true
	}
	s.live = len(items)
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// validFraction reports whether f can be a RebuildFraction: NaN and
// +Inf compare their way past maybeRebuild's test, one to a rebuild on
// every update, the other to none ever.
func validFraction(f float64) bool { return f > 0 && !math.IsInf(f, 1) }

// bindMetric points the store's counter — a metric over IDs — at the
// item metric dist. The ID closure is not a registered top-level
// function, so NewCounter finds no early-abandoning kernel for it; the
// item metric's own registered fast path (if any) is attached behind
// the same resolve indirection, or every DistanceUpTo of the tree and
// of the buffer-tail scans would run the exact kernel.
func (s *Store[T]) bindMetric(dist metric.DistanceFunc[T]) {
	s.itemDist = dist
	s.dist = metric.NewCounter(func(a, b int) float64 {
		return dist(s.resolve(a), s.resolve(b))
	})
	if bounded := metric.NewCounter(dist).Bounded(); bounded != nil {
		s.dist.SetBounded(func(a, b int, bound float64) float64 {
			return bounded(s.resolve(a), s.resolve(b), bound)
		})
	}
}

// resolve maps an ID to its item: non-negative IDs index the backing
// table, negative IDs are per-query slots registered by acquireQuery.
// Slots let any number of concurrent searches present their (distinct)
// query items to the shared tree-over-IDs without writing a shared
// field.
func (s *Store[T]) resolve(id int) T {
	if id < 0 {
		v, ok := s.queries.Load(id)
		if !ok {
			panic("dynamic: distance requested for released query slot")
		}
		return v.(T)
	}
	return s.items[id]
}

// acquireQuery registers q under a fresh negative slot ID for the
// duration of one search. releaseQuery must be called when the search
// finishes.
func (s *Store[T]) acquireQuery(q T) int {
	slot := int(-s.slotSeq.Add(1)) // -1, -2, -3, ...
	s.queries.Store(slot, q)
	return slot
}

func (s *Store[T]) releaseQuery(slot int) { s.queries.Delete(slot) }

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

// Insert adds one item. Amortized cost: O(log n) distance computations.
func (s *Store[T]) Insert(item T) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.items)
	s.items = append(s.items, item)
	s.alive = append(s.alive, true)
	s.live++
	s.buffer = append(s.buffer, id)
	return s.maybeRebuild()
}

// Delete removes every live item at distance zero from item
// (delete-by-value, the only identity a metric space offers) and
// reports how many were removed.
func (s *Store[T]) Delete(item T) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	slot := s.acquireQuery(item)
	defer s.releaseQuery(slot)
	for _, id := range s.tree.Range(slot, 0) {
		if s.alive[id] {
			s.alive[id] = false
			s.treeDead++
			s.live--
			removed++
		}
	}
	kept := s.buffer[:0]
	for _, id := range s.buffer {
		if s.alive[id] && s.dist.DistanceUpTo(slot, id, 0) == 0 {
			s.alive[id] = false
			s.live--
			removed++
			continue
		}
		kept = append(kept, id)
	}
	s.buffer = kept
	if err := s.maybeRebuild(); err != nil {
		return removed, err
	}
	return removed, nil
}

func (s *Store[T]) maybeRebuild() error {
	if float64(len(s.buffer)+s.treeDead) <= s.opts.RebuildFraction*float64(max(s.live, 1)) {
		return nil
	}
	return s.rebuild()
}

// rebuild compacts the backing table to the live items and constructs a
// fresh balanced tree over all of them.
func (s *Store[T]) rebuild() error {
	compact := make([]T, 0, s.live)
	for id, a := range s.alive {
		if a {
			compact = append(compact, s.items[id])
		}
	}
	s.items = compact
	s.alive = make([]bool, len(compact))
	ids := make([]int, len(compact))
	for i := range compact {
		s.alive[i] = true
		ids[i] = i
	}
	opts := s.opts.Tree
	opts.Seed = s.opts.Tree.Seed + s.seq
	s.seq++
	tree, err := mvp.New(ids, s.dist, opts)
	if err != nil {
		return err
	}
	s.tree = tree
	s.treeIDs = len(compact)
	s.treeDead = 0
	s.buffer = s.buffer[:0]
	s.rebuilds++
	return nil
}

var _ index.Searcher[int] = (*Store[int])(nil)

// Search is the store's one query implementation (index.Searcher).
// Epsilon, Budget and Patience are forwarded to the underlying
// mvp-tree; the overflow buffer's linear tail then spends whatever
// budget the tree left (ε and patience do not apply to a plain scan —
// every live buffered item the budget allows is checked exactly). With
// zero options the query is exact. Workers and Bound are not supported
// by the store and are ignored.
func (s *Store[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		return s.knn(req.Point, req.K, req.Opts)
	}
	return s.rangeSearch(req.Point, req.Radius, req.Opts)
}

// tailBudget reports how much of the query budget the tree phase left
// for the buffer tail: -1 for unlimited, never negative otherwise.
func tailBudget(o index.SearchOptions, treeStats index.SearchStats) int64 {
	if o.Budget <= 0 {
		return -1
	}
	if rem := o.Budget - treeStats.Distances(); rem > 0 {
		return rem
	}
	return 0
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
	slot := s.acquireQuery(q)
	defer s.releaseQuery(slot)
	res := s.tree.Search(index.Query[int]{Point: slot, Radius: r,
		Opts: index.SearchOptions{Epsilon: o.Epsilon, Budget: o.Budget}})
	st = res.Stats
	var out []T
	for _, id := range res.Items {
		if s.alive[id] {
			out = append(out, s.items[id])
		}
	}
	remaining := tailBudget(o, st)
	for _, id := range s.buffer {
		if !s.alive[id] {
			continue
		}
		if remaining == 0 {
			st.BudgetExhausted = 1
			break
		}
		if remaining > 0 {
			remaining--
		}
		st.Candidates++
		st.Computed++
		s.TraceDistance(1)
		// Membership only, so the kernel may abandon at r.
		if s.dist.DistanceUpTo(slot, id, r) <= r {
			out = append(out, s.items[id])
		}
	}
	if st.BudgetExhausted > 0 || o.Epsilon > 0 {
		st.Approximated = 1
	}
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
	slot := s.acquireQuery(q)
	defer s.releaseQuery(slot)
	// The tree may return tombstoned items; ask for enough extras to
	// guarantee k live ones among the answers.
	res := s.tree.Search(index.Query[int]{Point: slot, K: k + s.treeDead,
		Opts: index.SearchOptions{Epsilon: o.Epsilon, Budget: o.Budget, Patience: o.Patience}})
	st = res.Stats
	best := heapx.NewKBest[T](k)
	for _, nb := range res.Neighbors {
		if s.alive[nb.Item] {
			best.Push(s.items[nb.Item], nb.Dist)
		}
	}
	remaining := tailBudget(o, st)
	for _, id := range s.buffer {
		if !s.alive[id] {
			continue
		}
		if remaining == 0 {
			st.BudgetExhausted = 1
			break
		}
		if remaining > 0 {
			remaining--
		}
		st.Candidates++
		st.Computed++
		s.TraceDistance(1)
		// Push ignores anything ≥ the current k-th best: abandon at τ.
		best.Push(s.items[id], s.dist.DistanceUpTo(slot, id, best.Threshold()))
	}
	if st.BudgetExhausted > 0 || o.Epsilon > 0 {
		st.Approximated = 1
	}
	out := best.Sorted()
	st.Results = len(out)
	span.Done(&st)
	return index.Result[T]{Neighbors: out, Stats: st}
}
