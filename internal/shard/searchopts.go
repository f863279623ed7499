package shard

import (
	"mvptree/internal/index"
	"mvptree/internal/obs"
)

// Search is the unified query entry point (index.Searcher). With
// zero-valued SearchOptions it runs the exact fan-out, byte-identical
// to RangeWithStats / KNNWithStats. Workers > 1 fans a range query (or
// an approximate kNN query) out over that many goroutines, one shard
// per task, with results, stats and distance counts identical at every
// value — this fan-out is the only reader of Workers in the
// repository; the per-shard requests carry none. Exact kNN is always
// the sequential carried-τ walk and ignores Workers. Approximate requests split the distance budget across the
// shards — Budget/S each, the remainder dealt to the lowest shard ids —
// while Epsilon and Patience pass through unchanged, so the logical
// query never spends more than its budget no matter how many shards it
// touches. An external Bound is ignored: cross-shard τ sharing is the
// shard layer's own machinery.
func (x *Index[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K <= 0 {
		return x.rangeSearch(req)
	}
	if req.Opts.Approximate() {
		return x.knnApprox(req)
	}
	nb, s := x.KNNWithStats(req.Point, req.K)
	return index.Result[T]{Neighbors: nb, Stats: s}
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

// fanOutSearch answers req on every shard with up to req.Opts.Workers
// goroutines: each shard runs its slice of the request — Epsilon and
// Patience unchanged, its share of the budget, sequential inside the
// shard. Shards whose budget share is zero (more shards than budget)
// are skipped entirely and reported as exhausted.
func (x *Index[T]) fanOutSearch(req index.Query[T]) []index.Result[T] {
	limited := req.Opts.Budget > 0
	results := make([]index.Result[T], len(x.shards))
	x.fanOut(req.Opts.Workers, func(i int) {
		budget := budgetShare(req.Opts.Budget, len(x.shards), i)
		if limited && budget == 0 {
			results[i].Stats = index.SearchStats{BudgetExhausted: 1, Approximated: 1}
			return
		}
		sub := req
		sub.Opts = index.SearchOptions{Epsilon: req.Opts.Epsilon, Budget: budget, Patience: req.Opts.Patience}
		results[i] = x.shards[i].Search(sub)
	})
	return results
}

// rangeSearch answers a range request, exact or approximate: each
// shard's answer is deterministic and the merge is concatenation in
// ascending shard order, so the merged result, the summed stats and
// the distance count are identical at every Workers value.
func (x *Index[T]) rangeSearch(req index.Query[T]) index.Result[T] {
	span := x.StartQuery(obs.KindRange)
	results := x.fanOutSearch(req)
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

func (x *Index[T]) knnApprox(req index.Query[T]) index.Result[T] {
	span := x.StartQuery(obs.KindKNN)
	results := x.fanOutSearch(req)
	var s index.SearchStats
	lists := make([][]index.Neighbor[T], len(x.shards))
	for i, r := range results {
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
