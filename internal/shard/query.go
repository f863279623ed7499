package shard

import (
	"math"
	"sync"
	"sync/atomic"

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

// Range returns every item within r of q: the concatenation of each
// shard's answer in ascending shard order.
func (x *Index[T]) Range(q T, r float64) []T {
	out, _ := x.RangeWithStats(q, r)
	return out
}

// RangeWithStats fans the query out over the shards sequentially and
// returns the per-shard stats summed in shard order.
func (x *Index[T]) RangeWithStats(q T, r float64) ([]T, index.SearchStats) {
	res := x.rangeSearch(index.RangeQuery(q, r))
	return res.Items, res.Stats
}

// KNN returns the k nearest items across all shards, ordered by
// ascending distance (ties by shard order, then by the shard's own
// output order).
func (x *Index[T]) KNN(q T, k int) []index.Neighbor[T] {
	out, _ := x.KNNWithStats(q, k)
	return out
}

// KNNWithStats is the deterministic sequential-tightening walk: shards
// are searched in ascending id order, each bounded by the tightest
// k-th-best distance published so far (SearchOptions.Bound). The
// distance count is reproducible run to run — it is the paper's cost
// metric for a sharded kNN query.
func (x *Index[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], index.SearchStats) {
	span := x.StartQuery(obs.KindKNN)
	var s index.SearchStats
	if k <= 0 {
		span.Done(&s)
		return nil, s
	}
	req := index.KNNQuery(q, k)
	req.Opts.Bound = &carriedBound{tau: math.Inf(1)}
	lists := make([][]index.Neighbor[T], len(x.shards))
	for i, sh := range x.shards {
		res := sh.Search(req)
		lists[i] = res.Neighbors
		s.Add(res.Stats)
	}
	out := mergeKNN(lists, k)
	s.Results = len(out)
	span.Done(&s)
	return out, s
}

// fanOut runs task(i) for every shard on up to workers goroutines
// (the calling goroutine included), claiming shard indices from an
// atomic cursor. workers <= 1 runs sequentially in shard order.
func (x *Index[T]) fanOut(workers int, task func(int)) {
	n := len(x.shards)
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	w := min(workers, n)
	var cursor atomic.Int64
	run := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			task(i)
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
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
