package qexec

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/dynamic"
	"mvptree/internal/index"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/shard"
)

// mixedSearchers builds every kind of index the executor serves over one
// item set: the tree at v = 2 and v = 1, the sharded index at 1 and 2
// shards, the scan, and a dynamic store with a buffer and tombstones.
func mixedSearchers(t *testing.T, items [][]float64) map[string]index.Searcher[[]float64] {
	t.Helper()
	opts := mvp.Options{Partitions: 3, LeafCapacity: 20, PathLength: 4, Build: mvp.Build{Seed: 5}}
	vp := mvp.Options{Vantages: 1, Partitions: 2, LeafCapacity: 8, PathLength: -1, Build: mvp.Build{Seed: 5}}
	out := map[string]index.Searcher[[]float64]{"linear": linear.New(items, metric.NewCounter(metric.L2))}
	var err error
	if out["mvp"], err = mvp.New(items, metric.NewCounter(metric.L2), opts); err != nil {
		t.Fatal(err)
	}
	if out["vp"], err = mvp.New(items, metric.NewCounter(metric.L2), vp); err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 2} {
		name := fmt.Sprintf("shard%d", s)
		if out[name], err = shard.New(items, metric.NewCounter(metric.L2), shard.MVP[[]float64](opts), shard.Options{Shards: s, Seed: 9}); err != nil {
			t.Fatal(err)
		}
	}
	store, err := dynamic.New(items[:len(items)-40], metric.L2, dynamic.Options{Tree: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items[len(items)-40:] {
		if err := store.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items[:15] {
		if _, err := store.Delete(it); err != nil {
			t.Fatal(err)
		}
	}
	out["dynamic"] = store
	return out
}

// TestRunMixedSlice is the one path's contract: a slice mixing range
// requests at three radii, kNN at two k, an ε, a budget and a negative
// radius comes back, at every worker count and batch size and over every
// kind of index, as exactly what per-query Search returns — items,
// neighbors and SearchStats of every slot, the counter delta and the
// per-worker sums — and RunRange/RunKNN are Run over the requests they
// spell.
func TestRunMixedSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 7))
	items := dataset.UniformVectors(rng, 700, 6)
	queries := dataset.UniformQueries(rng, 27, 6)
	reqs := make([]index.Query[[]float64], len(queries))
	for i, q := range queries {
		switch i % 9 {
		case 0, 1, 2:
			reqs[i] = index.RangeQuery(q, []float64{0.25, 0.4, 0.6}[i%9])
		case 3, 4:
			reqs[i] = index.KNNQuery(q, []int{1, 12}[i%9-3])
		case 5:
			reqs[i] = index.RangeQuery(q, 0.5)
			reqs[i].Opts.Epsilon = 0.4
		case 6:
			reqs[i] = index.KNNQuery(q, 6)
			reqs[i].Opts.Budget = 90
		case 7:
			reqs[i] = index.RangeQuery(q, 0.45)
			reqs[i].Opts.Budget = 60
		case 8:
			reqs[i] = index.RangeQuery(q, -1)
		}
	}

	for name, idx := range mixedSearchers(t, items) {
		want := make([]index.Result[[]float64], len(reqs))
		var sum index.SearchStats
		before := idx.DistanceCount()
		for i, req := range reqs {
			want[i] = idx.Search(req)
			sum.Add(want[i].Stats)
		}
		wantDist := idx.DistanceCount() - before
		if sum.Distances() != wantDist {
			t.Fatalf("%s: per-query stats sum to %d distances, counter says %d", name, sum.Distances(), wantDist)
		}

		for _, workers := range []int{1, 2, 3} {
			for _, batch := range []int{0, 1, 4, 64} {
				got, stats, err := Run(idx, reqs, Options{Workers: workers, Batch: batch})
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s W=%d B=%d: results[%d] differs from Search\n got %+v\nwant %+v", name, workers, batch, i, got[i], want[i])
					}
				}
				if stats.Distances != wantDist || stats.Search != sum || stats.Answered != len(reqs) {
					t.Errorf("%s W=%d B=%d: %d distances, stats %+v, answered %d; want %d, %+v, %d",
						name, workers, batch, stats.Distances, stats.Search, stats.Answered, wantDist, sum, len(reqs))
				}
				for w, ws := range stats.PerWorker {
					var stripe index.SearchStats
					n := 0
					for i := w; i < len(reqs); i += workers {
						stripe.Add(want[i].Stats)
						n++
					}
					if ws.Queries != n || ws.Search != stripe {
						t.Errorf("%s W=%d B=%d: worker %d answered %d with %+v, its stripe is %d with %+v",
							name, workers, batch, w, ws.Queries, ws.Search, n, stripe)
					}
				}
			}
		}

		opts := Options{Workers: 2, Batch: 4}
		rr, rstats, _ := RunRange(idx, queries, 0.5, opts)
		kk, kstats, _ := RunKNN(idx, queries, 5, opts)
		rreqs, kreqs := requests(queries, 0.5, 0), requests(queries, 0, 5)
		rwant, rws, _ := Run(idx, rreqs, opts)
		kwant, kws, _ := Run(idx, kreqs, opts)
		for i := range queries {
			if !reflect.DeepEqual(rr[i], rwant[i].Items) || !reflect.DeepEqual(kk[i], kwant[i].Neighbors) {
				t.Fatalf("%s: RunRange/RunKNN results[%d] differ from Run", name, i)
			}
		}
		if rstats.Search != rws.Search || kstats.Search != kws.Search || rstats.Distances != rws.Distances || kstats.Distances != kws.Distances {
			t.Errorf("%s: RunRange/RunKNN stats differ from Run's", name)
		}
	}
}
