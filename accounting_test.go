package mvptree_test

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"mvptree"
	"mvptree/internal/shard"
)

// spanTally is a Tracer that sums the stats of the spans it sees; the
// table below is single-goroutine.
type spanTally struct {
	starts, dones int
	last, sum     mvptree.SearchStats
}

func (s *spanTally) OnQueryStart(mvptree.QueryKind) { s.starts++ }
func (s *spanTally) OnQueryDone(_ mvptree.QueryKind, _ time.Duration, st mvptree.SearchStats) {
	s.dones++
	s.last = st
	s.sum.Add(st)
}

// shardedVec builds the sharded index the tables below add to the
// structures: mvp shards over items under L2.
func shardedVec(t *testing.T, items [][]float64, shards int) *shard.Index[[]float64] {
	t.Helper()
	x, err := shard.New(items, mvptree.NewCounter(mvptree.L2),
		shard.MVP[[]float64](mvptree.Options{Partitions: 3, LeafCapacity: 20, PathLength: 4}), shard.Options{Shards: shards, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestAccountingTable is the one place a query's accounting is pinned: a
// query reports once, in its SearchStats, and everything else reads that
// value. Over every structure (the BK-tree over words, the rest over
// vectors), the store — holding a buffer and tombstones — and the
// sharded index at one and two shards — cascade and SQ8 armed where they
// arm — and over exact,
// ε and budgeted range and kNN requests, each answered alone and in
// SearchBatch groups where the index has them: the Tracer sees one start
// and one done per query with the Result's stats, the Observer's totals
// equal the summed per-query stats field by field (FilteredByQuantized
// included), and Distances() equals the counter delta.
func TestAccountingTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	items := mvptree.ClusteredVectors(rng, 1500, 8, 60, 0.15)
	queries := mvptree.UniformVectors(rng, 6, 8)
	var reqs []mvptree.Query[[]float64]
	for _, q := range queries {
		for _, o := range []mvptree.SearchOptions{{}, {Epsilon: 0.3}, {Budget: 150}} {
			r, k := mvptree.NewRangeQuery(q, 0.5), mvptree.NewKNNQuery(q, 6)
			r.Opts, k.Opts = o, o
			reqs = append(reqs, r, k)
		}
	}

	type row struct {
		idx       vecSearcher
		ob        *mvptree.Observer
		tr        *spanTally
		quantized bool // SQ8 armed over leaf items: some skip is expected
	}
	rows := map[string]row{}
	for name, build := range vecBuilders(items) {
		r := row{ob: mvptree.NewObserver(2), tr: &spanTally{}}
		opts := []vecOpt{mvptree.WithObserver[[]float64](r.ob), mvptree.WithTracer[[]float64](r.tr)}
		if name == "mvp" || name == "vp" || name == "linear" {
			opts = append(opts, mvptree.WithCascade[[]float64](mvptree.CascadeOptions{}),
				mvptree.WithQuantized[[]float64](mvptree.QuantizeSQ8))
			r.quantized = name != "vp" // a classic vp-tree keeps no leaf items
		}
		idx, err := build(opts...)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		if s, ok := idx.(*mvptree.DynamicStore[[]float64]); ok {
			churn(t, s, items)
		}
		r.idx = idx
		rows[name] = r
	}
	for _, shards := range []int{1, 2} {
		x := shardedVec(t, items, shards)
		if err := x.EnableCascade(mvptree.CascadeOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := x.EnableQuantize(mvptree.QuantizeSQ8); err != nil {
			t.Fatal(err)
		}
		r := row{idx: x, ob: mvptree.NewObserver(2), tr: &spanTally{}, quantized: true}
		x.SetObserver(r.ob)
		x.SetTracer(r.tr)
		rows[fmt.Sprintf("shard%d", shards)] = r
	}
	if len(rows) != 10 {
		t.Fatalf("table covers %d indexes, want 10", len(rows))
	}

	for name, r := range rows {
		t.Run(name, func(t *testing.T) { checkAccounting(t, r.idx, reqs, r.ob, r.tr, r.quantized) })
	}

	// The BK-tree needs an integer metric: the same checks over words.
	words := mvptree.Words(rng, 800, mvptree.WordOptions{})
	var wreqs []mvptree.Query[string]
	for _, q := range mvptree.Words(rng, 6, mvptree.WordOptions{}) {
		for _, o := range []mvptree.SearchOptions{{}, {Epsilon: 0.5}, {Budget: 60}} {
			r, k := mvptree.NewRangeQuery(q, 2), mvptree.NewKNNQuery(q, 3)
			r.Opts, k.Opts = o, o
			wreqs = append(wreqs, r, k)
		}
	}
	ob, tr := mvptree.NewObserver(2), &spanTally{}
	bk, err := mvptree.NewBK(words, mvptree.EditDistance, mvptree.WithObserver[string](ob), mvptree.WithTracer[string](tr))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("bk", func(t *testing.T) { checkAccounting[string](t, bk, wreqs, ob, tr, false) })
}

// churn inserts into the store and deletes from its tree, short of any
// rebuild, so its answers come from a tree with tombstones it skips and
// from a buffer filtered by the pivots' bounds.
func churn(t *testing.T, s *mvptree.DynamicStore[[]float64], items [][]float64) {
	t.Helper()
	for _, v := range mvptree.ClusteredVectors(rand.New(rand.NewPCG(29, 2)), 120, 8, 60, 0.15) {
		if err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range items[:40] {
		if _, err := s.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	if s.Rebuilds() != 1 || s.Buffered() != 120 || s.Len() != len(items)+120-40 {
		t.Fatalf("store after churn: %d rebuilds, %d buffered, %d live; want 1, 120, %d", s.Rebuilds(), s.Buffered(), s.Len(), len(items)+80)
	}
}

// checkAccounting answers reqs on idx alone and, where idx has
// SearchBatch, in groups of 8, with ob and tr attached to it.
func checkAccounting[T any](t *testing.T, idx mvptree.Searcher[T], reqs []mvptree.Query[T], ob *mvptree.Observer, tr *spanTally, quantized bool) {
	counted := idx.(interface{ DistanceCount() int64 })
	c0 := counted.DistanceCount()
	var sum mvptree.SearchStats
	queriesRun := 0
	for i, req := range reqs {
		before, s0, d0 := counted.DistanceCount(), tr.starts, tr.dones
		res := idx.Search(req)
		if tr.starts != s0+1 || tr.dones != d0+1 {
			t.Fatalf("req %d: the tracer saw %d starts and %d dones, want 1 each", i, tr.starts-s0, tr.dones-d0)
		}
		if tr.last != res.Stats {
			t.Fatalf("req %d: the tracer got %+v, the Result carries %+v", i, tr.last, res.Stats)
		}
		if d := counted.DistanceCount() - before; res.Stats.Distances() != d {
			t.Fatalf("req %d: Distances() = %d, counter delta %d", i, res.Stats.Distances(), d)
		}
		sum.Add(res.Stats)
		queriesRun++
	}
	if b, ok := idx.(mvptree.BatchSearcher[T]); ok {
		for lo := 0; lo < len(reqs); lo += 8 {
			group := reqs[lo:min(lo+8, len(reqs))]
			out := make([]mvptree.Result[T], len(group))
			b.SearchBatch(group, out)
			for _, res := range out {
				sum.Add(res.Stats)
			}
			queriesRun += len(group)
		}
	}
	if tr.starts != queriesRun || tr.dones != queriesRun {
		t.Fatalf("the tracer saw %d starts and %d dones over %d queries", tr.starts, tr.dones, queriesRun)
	}
	if tr.sum != sum {
		t.Fatalf("the tracer summed %+v, the Results %+v", tr.sum, sum)
	}
	var want mvptree.SearchTotals
	want.AddStats(sum)
	snap := ob.Snapshot()
	if snap.Search != want || snap.Queries != int64(queriesRun) {
		t.Fatalf("observer: %d queries, %+v\nResults: %d queries, %+v", snap.Queries, snap.Search, queriesRun, want)
	}
	if d := counted.DistanceCount() - c0; sum.Distances() != d || snap.Distances != d {
		t.Fatalf("Σ Distances() = %d, observer %d, counter delta %d", sum.Distances(), snap.Distances, d)
	}
	if quantized != (sum.FilteredByQuantized > 0) {
		t.Fatalf("FilteredByQuantized = %d, SQ8 skipping expected: %v", sum.FilteredByQuantized, quantized)
	}
}
