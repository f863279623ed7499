package shard

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
)

// TestOwnChangesNothing checks Index.Own on a Clone, packed beside queries
// on the index it was cloned from (go test -race): the packed index
// answers, stats and counter deltas included, as a twin over copies of
// the same vectors, also once the vectors it was built over are written
// over; an index of words is left as it is.
func TestOwnChangesNothing(t *testing.T) {
	const n, dim = 3000, 8
	items := dataset.UniformVectors(rand.New(rand.NewPCG(5, 0)), n, dim)
	copies := make([][]float64, n)
	for i, v := range items {
		copies[i] = slices.Clone(v)
	}
	build := func(xs [][]float64) *Index[[]float64] {
		x, err := New(xs, metric.NewCounter(metric.L2), MVP[[]float64](mvpOpts), Options{Shards: 3, Workers: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	served, twin := build(items), build(copies)
	var reqs []index.Query[[]float64]
	for _, q := range dataset.UniformQueries(rand.New(rand.NewPCG(5, 1)), 6, dim) {
		reqs = append(reqs, index.RangeQuery(q, 0.5), index.KNNQuery(q, 7))
	}
	owned := served.Clone()
	done := make(chan bool)
	go func() { done <- owned.Own() }()
	for _, req := range reqs {
		if a, b := served.Search(req), twin.Search(req); !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v beside the clone's Own: %+v, twin %+v", req, a, b)
		}
	}
	if !<-done {
		t.Fatal("Own did not pack an index of vectors")
	}
	for _, v := range items {
		clear(v)
	}
	for _, req := range reqs {
		ca, cb := owned.DistanceCount(), twin.DistanceCount()
		a, b := owned.Search(req), twin.Search(req)
		if !reflect.DeepEqual(a, b) || owned.DistanceCount()-ca != twin.DistanceCount()-cb {
			t.Fatalf("%+v: packed %+v, twin %+v", req, a, b)
		}
	}
	a, b := make([]index.Result[[]float64], len(reqs)), make([]index.Result[[]float64], len(reqs))
	owned.SearchBatch(reqs, a)
	twin.SearchBatch(reqs, b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SearchBatch answers differ once the shards are packed")
	}

	words, err := New(dataset.Words(rand.New(rand.NewPCG(5, 2)), 500, dataset.WordOptions{}), metric.NewCounter(metric.Edit), MVP[string](mvpOpts), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if words.Own() {
		t.Fatal("Own packed an index of words")
	}
}
