package mvp_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"mvptree/internal/bench"
	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// ranger is what BenchmarkLeafOrder times of the scan and the tree.
type ranger interface {
	Range(q []float64, r float64) [][]float64
	KNN(q []float64, k int) []index.Neighbor[[]float64]
}

// BenchmarkLeafOrder prices memory order on the uniform-l2 workload's
// shape: 50 000 uniform vectors of dim 20, the paper's tree (m = 3,
// k = 80, p = 5) and the radius bench.CalibrateRadius puts at 2 %
// selectivity. Every case answers the same range queries and reports
// ns/item, a query's time over the item count:
//
//   - scan/generation: the linear scan over the items in the order they
//     were generated, which is the order of their memory;
//   - scan/leaf-order: the same scan over Tree.Items(), the tree's order,
//     whose vectors lie scattered across that memory;
//   - scan/loaded: the scan over the loaded tree's Items(), the tree's
//     order laid out in memory;
//   - tree/built: the tree's range query, which reads its leaves' vectors
//     where the generator put them;
//   - tree/loaded: the same tree after Save → Load, whose decoder
//     allocates the items one after another in leaf order;
//   - tree/packed: the built tree after Own, which copies its points into
//     one block in leaf order, as mvpserve does after its build.
//
// The last three differ in memory order alone. The knn/ cases answer the
// same queries' 10 nearest neighbors over scan/generation, tree/built,
// tree/loaded and tree/packed.
func BenchmarkLeafOrder(b *testing.B) {
	const n, dim, k = 50000, 20, 10
	items := dataset.UniformVectors(rand.New(rand.NewPCG(1, 0)), n, dim)
	queries := dataset.UniformQueries(rand.New(rand.NewPCG(1, 1)), 64, dim)
	r, err := bench.CalibrateRadius(rand.New(rand.NewPCG(1, 2)), items, metric.L2, 0.02, 0)
	if err != nil {
		b.Fatal(err)
	}
	opts := mvp.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: mvp.Build{Seed: 1}}
	built, err := mvp.New(items, metric.NewCounter(metric.L2), opts)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Save(&buf, codec.EncodeVector); err != nil {
		b.Fatal(err)
	}
	loaded, err := mvp.Load(&buf, metric.NewCounter(metric.L2), codec.DecodeVector)
	if err != nil {
		b.Fatal(err)
	}
	packed, err := mvp.New(items, metric.NewCounter(metric.L2), opts)
	if err != nil {
		b.Fatal(err)
	}
	if !packed.Own() {
		b.Fatal("Own did not pack the vector tree")
	}
	scan := linear.New(items, metric.NewCounter(metric.L2))
	type leafCase struct {
		name  string
		index ranger
	}
	cases := []leafCase{
		{"scan/generation", scan},
		{"scan/leaf-order", linear.New(built.Items(), metric.NewCounter(metric.L2))},
		{"scan/loaded", linear.New(loaded.Items(), metric.NewCounter(metric.L2))},
		{"tree/built", built},
		{"tree/loaded", loaded},
		{"tree/packed", packed},
	}
	want := 0
	for _, c := range cases {
		found := 0
		for _, q := range queries {
			found += len(c.index.Range(q, r))
		}
		if want == 0 {
			want = found
		}
		if found != want {
			b.Fatalf("%s: %d results over %d queries, want %d", c.name, found, len(queries), want)
		}
		timeLeafOrder(b, c.name, func(q []float64) { c.index.Range(q, r) }, queries, n)
	}
	var wantSum float64
	for _, c := range []leafCase{{"knn/scan/generation", scan}, {"knn/tree/built", built}, {"knn/tree/loaded", loaded}, {"knn/tree/packed", packed}} {
		var sum float64
		for _, q := range queries {
			for _, nb := range c.index.KNN(q, k) {
				sum += nb.Dist
			}
		}
		if wantSum == 0 {
			wantSum = sum
		}
		if sum != wantSum {
			b.Fatalf("%s: neighbor distances over %d queries sum to %v, want %v", c.name, len(queries), sum, wantSum)
		}
		timeLeafOrder(b, c.name, func(q []float64) { c.index.KNN(q, k) }, queries, n)
	}
}

// timeLeafOrder runs one BenchmarkLeafOrder case, cycling through the
// queries, and reports ns/item.
func timeLeafOrder(b *testing.B, name string, query func([]float64), queries [][]float64, n int) {
	b.Run(name, func(b *testing.B) {
		i := 0
		for b.Loop() {
			query(queries[i%len(queries)])
			i++
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/item")
	})
}
