package mvp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/quant"
	"mvptree/internal/shard"
)

// knnFloatPin is the SHA-256 TestKNNFloatStatsPinned computes. It was
// recorded while kNN still decoded every stored code to a float and
// compared magnitudes, before it filtered on integer code windows; never
// re-record it for a change to how the leaf scan reaches its decisions.
const knnFloatPin = "65295d64f7b8bfd7bfc3daa23ee3665bd4739bc19d5160c0158d8e9e45f5de7f"

// TestKNNFloatStatsPinned pins kNN where the stored codes sit off their
// grid: L2 distances of float vectors, so the leaf filter and the cascade
// have a slack above zero and a bound lands between codes, which
// raggedGolden's integer metric never reaches. One SHA-256 covers every
// answer (distance and item), SearchStats and counter delta of kNN
// queries over three datasets × three tree shapes × {plain, cascade, SQ8,
// both} × k ∈ {1, 10, 50} × {exact, ε 0.5, budget 400}, and of the same
// requests through 2 and 3 shards, where the shared bound joins τ′.
func TestKNNFloatStatsPinned(t *testing.T) {
	type data struct {
		name           string
		items, queries [][]float64
	}
	var sets []data
	for i, c := range []struct {
		name      string
		dim       int
		clustered bool
	}{{"uniform20", 20, false}, {"clustered8", 8, true}, {"uniform3", 3, false}} {
		rng := rand.New(rand.NewPCG(36, uint64(i)))
		var items [][]float64
		if c.clustered {
			items = dataset.ClusteredVectors(rng, 1500, c.dim, 50, 0.15)
		} else {
			items = dataset.UniformVectors(rng, 1500, c.dim)
		}
		sets = append(sets, data{c.name, items, dataset.UniformQueries(rng, 30, c.dim)})
	}
	shapes := []mvp.Options{
		{Partitions: 3, LeafCapacity: 80, PathLength: 5},
		{Vantages: 1, Partitions: 2, LeafCapacity: 13, PathLength: 4},
		{Vantages: 1, Partitions: 3, LeafCapacity: -1, PathLength: 5},
	}
	var reqs []index.Query[[]float64]
	for _, k := range []int{1, 10, 50} {
		for _, o := range []index.SearchOptions{{}, {Epsilon: 0.5}, {Budget: 400}} {
			r := index.KNNQuery[[]float64](nil, k)
			r.Opts = o
			reqs = append(reqs, r)
		}
	}
	type searcher interface {
		Search(index.Query[[]float64]) index.Result[[]float64]
	}
	h := sha256.New()
	run := func(x searcher, dist *metric.Counter[[]float64], queries [][]float64) {
		for _, q := range queries {
			for _, req := range reqs {
				req.Point = q
				before := dist.Count()
				res := x.Search(req)
				writeKNN(h, res, dist.Count()-before)
			}
		}
	}
	for _, d := range sets {
		for si, opts := range shapes {
			opts.Seed = uint64(si + 1)
			for _, mode := range []struct {
				name     string
				cas, sq8 bool
			}{{"plain", false, false}, {"cascade", true, false}, {"sq8", false, true}, {"both", true, true}} {
				dist := metric.NewCounter(metric.L2)
				tree, err := mvp.New(d.items, dist, opts)
				if err != nil {
					t.Fatal(err)
				}
				if mode.cas {
					if err := tree.EnableCascade(cascade.Options{Pivots: 4}); err != nil {
						t.Fatal(err)
					}
				}
				if mode.sq8 {
					if err := tree.EnableQuantize(quant.SQ8); err != nil {
						t.Fatal(err)
					}
				}
				fmt.Fprintf(h, "%s/%d/%s\n", d.name, si, mode.name)
				run(tree, dist, d.queries)
			}
		}
		for _, s := range []int{2, 3} {
			dist := metric.NewCounter(metric.L2)
			x, err := shard.New(d.items, dist, shard.MVP[[]float64](shapes[0]), shard.Options{Shards: s, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s/shards%d\n", d.name, s)
			run(x, dist, d.queries[:10])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != knnFloatPin {
		t.Errorf("kNN answers, stats and counts hash to %s, want %s", got, knnFloatPin)
	}
}

// writeKNN adds one kNN answer to h: each neighbor's distance bits and
// item, the stats and the counter delta.
func writeKNN(h hash.Hash, res index.Result[[]float64], delta int64) {
	for _, nb := range res.Neighbors {
		fmt.Fprintf(h, "%x %v;", math.Float64bits(nb.Dist), nb.Item)
	}
	fmt.Fprintf(h, "|%+v|%d\n", res.Stats, delta)
}

// knnNaNPin is the SHA-256 TestKNNNaNStatsPinned computes, recorded, as
// knnFloatPin was, while kNN still decoded the stored codes.
const knnNaNPin = "2545807d63e66ac6884ac010c985789df455151feffe2b5b13130662d2c87f0d"

// TestKNNNaNStatsPinned pins what a NaN query distance does to kNN's leaf
// filter. The items are points of the unit square and their distances
// L2, so the stored codes and the slack are ordinary; a query left of the
// square is at distance NaN from every point in its upper half. Its
// distances to vantage points, PATH ancestors and cascade pivots are then
// NaN in some columns and not in others, which is where the rules differ:
// a NaN D1 opens D2 and the PATH, a NaN pivot distance the cascade, any
// other NaN its own column.
func TestKNNNaNStatsPinned(t *testing.T) {
	dist := func(a, b []float64) float64 {
		if a[0] < 0 && b[1] > 0.5 || b[0] < 0 && a[1] > 0.5 {
			return math.NaN()
		}
		return metric.L2(a, b)
	}
	rng := rand.New(rand.NewPCG(36, 9))
	items := dataset.UniformVectors(rng, 1500, 2)
	queries := dataset.UniformVectors(rng, 40, 2)
	for _, q := range queries[:30] {
		q[0] -= 0.5
	}
	h := sha256.New()
	for si, opts := range []mvp.Options{
		{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: mvp.Build{Seed: 1}},
		{Vantages: 1, Partitions: 2, LeafCapacity: 13, PathLength: 4, Build: mvp.Build{Seed: 2}},
	} {
		for _, cas := range []bool{false, true} {
			c := metric.NewCounter(dist)
			tree, err := mvp.New(items, c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cas {
				if err := tree.EnableCascade(cascade.Options{Pivots: 4}); err != nil {
					t.Fatal(err)
				}
			}
			fmt.Fprintf(h, "%d/%v\n", si, cas)
			for _, q := range queries {
				for _, k := range []int{1, 10, 50} {
					for _, o := range []index.SearchOptions{{}, {Epsilon: 0.5}} {
						req := index.KNNQuery(q, k)
						req.Opts = o
						before := c.Count()
						res := tree.Search(req)
						writeKNN(h, res, c.Count()-before)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != knnNaNPin {
		t.Errorf("kNN answers, stats and counts hash to %s, want %s", got, knnNaNPin)
	}
}
