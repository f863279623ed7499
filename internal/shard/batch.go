package shard

import (
	"fmt"

	"mvptree/internal/index"
	"mvptree/internal/obs"
)

// SearchBatch answers a query group against the sharded index
// (index.BatchSearcher), byte-identical to per-query Search calls.
//
// Shareable members (index.Query.Shareable: exact range requests) are
// the batched path: the whole group fans out shard by shard, each shard
// answering it through its own SearchBatch in one shared traversal, and
// per-query merges then concatenate shard answers in ascending shard
// order exactly as Search does. Every other member goes to Search: a
// kNN walk carries a per-query τ across shards and an approximate one a
// per-query budget share, neither of which a group shares.
func (x *Index[T]) SearchBatch(reqs []index.Query[T], out []index.Result[T]) {
	if len(reqs) != len(out) {
		panic(fmt.Sprintf("shard: SearchBatch called with %d queries and %d result slots", len(reqs), len(out)))
	}
	if len(reqs) == 0 {
		return
	}
	if len(reqs) == 1 {
		// A group of one shares nothing; the per-query path is the
		// reference the batch is pinned against, so delegating is
		// identical by definition and skips the group scaffolding.
		out[0] = x.Search(reqs[0])
		return
	}

	idxs := make([]int, 0, len(reqs))
	for i, req := range reqs {
		if req.Shareable() {
			idxs = append(idxs, i)
		} else {
			out[i] = x.Search(req)
		}
	}
	if len(idxs) == 0 {
		return
	}

	group := make([]index.Query[T], len(idxs))
	spans := make([]obs.Span, len(idxs))
	merged := make([]index.Result[T], len(idxs))
	for gi, i := range idxs {
		group[gi] = reqs[i]
		spans[gi] = x.StartQuery(obs.KindRange)
	}

	// Shard-major fan-out: each shard sees the whole group once and
	// amortizes its traversal over it.
	sub := make([]index.Result[T], len(group))
	for _, sh := range x.shards {
		sh.SearchBatch(group, sub)
		for gi := range group {
			merged[gi].Items = append(merged[gi].Items, sub[gi].Items...)
			merged[gi].Stats.Add(sub[gi].Stats)
			sub[gi] = index.Result[T]{}
		}
	}
	for gi, i := range idxs {
		merged[gi].Stats.Results = len(merged[gi].Items)
		spans[gi].Done(&merged[gi].Stats)
		out[i] = merged[gi]
	}
}
