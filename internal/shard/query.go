package shard

import (
	"math"

	"mvptree/internal/index"
	"mvptree/internal/obs"
)

// carriedBound is the sequential-tightening index.KNNBound: single
// goroutine, shards searched in ascending id order, each inheriting the
// tightest k-th-best distance any earlier shard published. Entirely
// deterministic — the distance count it produces is a reproducible
// cost-model quantity.
type carriedBound struct{ tau float64 }

func (b *carriedBound) Tau() float64 { return b.tau }

func (b *carriedBound) Publish(t float64) {
	if t < b.tau {
		b.tau = t
	}
}

// Search is the unified query entry point (index.Searcher) and the
// index's one implementation: the shards are visited in ascending id
// order on the calling goroutine, so results, order, SearchStats and
// distance counts are a function of the request alone (the executor
// parallelises across queries). Epsilon and Patience pass through to
// every shard unchanged; a distance budget is dealt across the shards —
// Budget/S each, the remainder to the lowest shard ids — so the logical
// query never spends more than its budget no matter how many shards it
// touches. An external Bound is ignored: cross-shard τ sharing is the
// shard layer's own machinery.
func (x *Index[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		return x.knn(req)
	}
	return x.rangeSearch(req)
}

// Range returns every item within r of q: the concatenation of each
// shard's answer in ascending shard order.
func (x *Index[T]) Range(q T, r float64) []T {
	return x.Search(index.RangeQuery(q, r)).Items
}

// RangeWithStats is Range plus the per-shard stats summed in shard
// order.
func (x *Index[T]) RangeWithStats(q T, r float64) ([]T, index.SearchStats) {
	res := x.Search(index.RangeQuery(q, r))
	return res.Items, res.Stats
}

// KNN returns the k nearest items across all shards, ordered by
// ascending distance (ties by shard order, then by the shard's own
// output order).
func (x *Index[T]) KNN(q T, k int) []index.Neighbor[T] {
	return x.knn(index.KNNQuery(q, k)).Neighbors
}

// KNNWithStats is KNN plus the summed stats (not through Search, which
// reads k <= 0 as a range request).
func (x *Index[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], index.SearchStats) {
	res := x.knn(index.KNNQuery(q, k))
	return res.Neighbors, res.Stats
}

// budgetShare is shard i's slice of a logical distance budget dealt
// across s shards: base share total/s, remainder to the lowest shard
// ids. A zero or negative total means unlimited, reported as zero.
func budgetShare(total int64, s, i int) int64 {
	if total <= 0 {
		return 0
	}
	share := total / int64(s)
	if int64(i) < total%int64(s) {
		share++
	}
	return share
}

// fanOut answers req on every shard in ascending id order: each shard
// runs its slice of the request — Epsilon and Patience unchanged, its
// share of the budget, bound attached. Shards whose budget share is zero
// (more shards than budget) are skipped entirely and reported as
// exhausted.
func (x *Index[T]) fanOut(req index.Query[T], bound index.KNNBound) []index.Result[T] {
	limited := req.Opts.Budget > 0
	results := make([]index.Result[T], len(x.shards))
	for i, sh := range x.shards {
		budget := budgetShare(req.Opts.Budget, len(x.shards), i)
		if limited && budget == 0 {
			results[i].Stats = index.SearchStats{BudgetExhausted: 1, Approximated: 1}
			continue
		}
		sub := req
		sub.Opts = index.SearchOptions{Epsilon: req.Opts.Epsilon, Budget: budget, Patience: req.Opts.Patience, Bound: bound}
		results[i] = sh.Search(sub)
	}
	return results
}

// rangeSearch answers a range request, exact or approximate: the merge
// is concatenation in ascending shard order.
func (x *Index[T]) rangeSearch(req index.Query[T]) index.Result[T] {
	span := x.StartQuery(obs.KindRange)
	results := x.fanOut(req, nil)
	var s index.SearchStats
	total := 0
	for _, r := range results {
		total += len(r.Items)
	}
	var out []T
	if total > 0 {
		out = make([]T, 0, total)
	}
	for _, r := range results {
		out = append(out, r.Items...)
		s.Add(r.Stats)
	}
	clampApproxFlags(&s)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Items: out, Stats: s}
}

// knn answers a kNN request. The exact one is the deterministic
// sequential-tightening walk: each shard is bounded by the tightest
// k-th-best distance published so far (SearchOptions.Bound), so its
// distance count is reproducible run to run — the paper's cost metric
// for a sharded kNN query. An approximate one carries no τ: its shards
// answer their budget shares independently.
func (x *Index[T]) knn(req index.Query[T]) index.Result[T] {
	span := x.StartQuery(obs.KindKNN)
	var s index.SearchStats
	if req.K <= 0 {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	var bound index.KNNBound
	if !req.Opts.Approximate() {
		bound = &carriedBound{tau: math.Inf(1)}
	}
	lists := make([][]index.Neighbor[T], len(x.shards))
	for i, r := range x.fanOut(req, bound) {
		lists[i] = r.Neighbors
		s.Add(r.Stats)
	}
	clampApproxFlags(&s)
	out := mergeKNN(lists, req.K)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Neighbors: out, Stats: s}
}

// clampApproxFlags reduces summed per-shard 0/1 flags back to the
// logical query's 0/1: any exhausted or approximate slice makes the
// whole answer so.
func clampApproxFlags(s *index.SearchStats) {
	if s.BudgetExhausted > 0 {
		s.BudgetExhausted = 1
		s.Approximated = 1
	}
	if s.Approximated > 0 {
		s.Approximated = 1
	}
}

// mergeKNN merges per-shard neighbor lists (each ascending) into the
// global top-k. The merge is a stable k-way pick: ties on distance are
// resolved by shard order first, then by position within the shard's
// list, so the merged result is a deterministic function of the lists.
func mergeKNN[T any](lists [][]index.Neighbor[T], k int) []index.Neighbor[T] {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	if k > total {
		k = total
	}
	out := make([]index.Neighbor[T], 0, k)
	pos := make([]int, len(lists))
	for len(out) < k {
		bestShard := -1
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			if bestShard < 0 || l[pos[i]].Dist < lists[bestShard][pos[bestShard]].Dist {
				bestShard = i
			}
		}
		if bestShard < 0 {
			break
		}
		out = append(out, lists[bestShard][pos[bestShard]])
		pos[bestShard]++
	}
	return out
}
