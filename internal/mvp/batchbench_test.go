package mvp_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"mvptree/internal/bench"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// BenchmarkSearchBatch is the batch layer's attribution row: each case
// answers the same 64 range queries one by one through Search (search)
// and as one SearchBatch (batch), over 50 000 items, and reports
// µs/query, a pass's time over 64. The cases:
//
//   - mvp/uniform: the paper's tree (m = 3, k = 80, p = 5) over uniform
//     vectors of dim 20, at the radius of 2 % selectivity;
//   - mvp/clustered: the same tree over clustered vectors, queried at
//     sampled items at 0.2 %;
//   - mvp/words: the same tree over words under edit distance, at r = 1;
//   - vp/uniform: the classic vp-tree (v = 1, no leaf items, no PATH)
//     over the uniform vectors, at 2 %.
//
// Before timing, every case checks that both paths return the same
// items, in the same order, with the same stats.
func BenchmarkSearchBatch(b *testing.B) {
	const n, dim, group = 50000, 20, 64
	paper := mvp.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: mvp.Build{Seed: 1}}
	classic := mvp.Options{Vantages: 1, Partitions: 3, LeafCapacity: -1, PathLength: -1, Build: mvp.Build{Seed: 1}}
	radius := func(items [][]float64, selectivity float64) float64 {
		r, err := bench.CalibrateRadius(rand.New(rand.NewPCG(1, 2)), items, metric.L2, selectivity, 0)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}

	uniform := dataset.UniformVectors(rand.New(rand.NewPCG(1, 0)), n, dim)
	uniformQ := dataset.UniformQueries(rand.New(rand.NewPCG(1, 1)), group, dim)
	clustered := dataset.ClusteredVectors(rand.New(rand.NewPCG(1, 3)), n, dim, 1000, 0.15)
	clusteredQ := dataset.SampleQueries(rand.New(rand.NewPCG(1, 4)), clustered, group)
	words := dataset.Words(rand.New(rand.NewPCG(1, 5)), n, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	wordsQ := dataset.SampleQueries(rand.New(rand.NewPCG(1, 6)), words, group)

	r2 := radius(uniform, 0.02)
	timeBatch(b, "mvp/uniform", uniform, metric.L2, paper, uniformQ, r2)
	timeBatch(b, "mvp/clustered", clustered, metric.L2, paper, clusteredQ, radius(clustered, 0.002))
	timeBatch(b, "mvp/words", words, metric.Edit, paper, wordsQ, 1)
	timeBatch(b, "vp/uniform", uniform, metric.L2, classic, uniformQ, r2)
}

// timeBatch runs one BenchmarkSearchBatch case: it builds the tree, checks
// that SearchBatch answers as Search does, and times both.
func timeBatch[T any](b *testing.B, name string, items []T, dist metric.DistanceFunc[T], opts mvp.Options, queries []T, r float64) {
	tree, err := mvp.New(items, metric.NewCounter(dist), opts)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]index.Query[T], len(queries))
	for i, q := range queries {
		reqs[i] = index.RangeQuery(q, r)
	}
	results := make([]index.Result[T], len(reqs))
	tree.SearchBatch(reqs, results)
	for i, req := range reqs {
		if want := tree.Search(req); !reflect.DeepEqual(results[i], want) {
			b.Fatalf("%s: query %d: batch answered %d items (%+v), Search %d (%+v)",
				name, i, len(results[i].Items), results[i].Stats, len(want.Items), want.Stats)
		}
	}
	perQuery := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(reqs)), "µs/query")
	}
	b.Run(name+"/search", func(b *testing.B) {
		for b.Loop() {
			for _, req := range reqs {
				tree.Search(req)
			}
		}
		perQuery(b)
	})
	b.Run(name+"/batch", func(b *testing.B) {
		for b.Loop() {
			tree.SearchBatch(reqs, results)
		}
		perQuery(b)
	})
}
