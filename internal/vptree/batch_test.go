package vptree

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/quant"
	"mvptree/internal/testutil"
)

var batchSizes = []int{1, 4, 16, 64}

// TestBatchInvariance pins batch == sequential on the vp-tree across
// orders and leaf capacities, mixing exact range, exact kNN,
// approximate and budgeted requests (the latter two exercise the
// per-query fallback inside the batch), with the quantized pre-filter
// and the cascade armed on one variant each.
func TestBatchInvariance(t *testing.T) {
	items := vectors(201, 2200, 10)
	variants := []struct {
		name              string
		opts              Options
		quantize, cascade bool
	}{
		{"binary", Options{Order: 2, LeafCapacity: 8, Build: Build{Seed: 5}}, false, false},
		{"m4/quantized", Options{Order: 4, LeafCapacity: 16, Build: Build{Seed: 6}}, true, false},
		{"m3/cascade", Options{Order: 3, LeafCapacity: 12, Build: Build{Seed: 7}}, false, true},
	}
	queries := vectors(202, 30, 10)
	queries = append(queries, items[5], items[1717])
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			dist := metric.NewCounter(metric.L2)
			tree, err := New(items, dist, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			if v.quantize {
				if err := tree.EnableQuantize(quant.SQ8); err != nil {
					t.Fatal(err)
				}
			}
			if v.cascade {
				if err := tree.EnableCascade(cascade.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			var reqs []index.Query[[]float64]
			for qi, q := range queries {
				reqs = append(reqs, index.RangeQuery(q, []float64{0.3, 0.7}[qi%2]))
				reqs = append(reqs, index.KNNQuery(q, []int{1, 10}[qi%2]))
				switch qi % 3 {
				case 0:
					r := index.RangeQuery(q, 0.5)
					r.Opts.Epsilon = 0.5
					reqs = append(reqs, r)
				case 1:
					r := index.KNNQuery(q, 5)
					r.Opts.Budget = 150
					reqs = append(reqs, r)
				case 2:
					reqs = append(reqs, index.RangeQuery(q, 0))
				}
			}
			testutil.CheckBatch(t, tree, dist, reqs, batchSizes, slices.Equal[[]float64])
		})
	}
}

// TestBatchEdit pins batch == sequential over strings under edit
// distance — no registered block kernel, so the fallback one-at-a-time
// block adapter carries the traversal.
func TestBatchEdit(t *testing.T) {
	rng := rand.New(rand.NewPCG(203, 204))
	const letters = "abcde"
	words := make([]string, 500)
	for i := range words {
		n := 3 + rng.IntN(5)
		b := make([]byte, n)
		for j := range b {
			b[j] = letters[rng.IntN(len(letters))]
		}
		words[i] = string(b)
	}
	dist := metric.NewCounter(metric.Edit)
	tree, err := New(words, dist, Options{Order: 3, LeafCapacity: 6, Build: Build{Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []index.Query[string]
	for qi := 0; qi < 20; qi++ {
		q := words[rng.IntN(len(words))] + string(letters[rng.IntN(len(letters))])
		reqs = append(reqs, index.RangeQuery(q, float64(1+qi%3)))
		reqs = append(reqs, index.KNNQuery(q, 1+qi%6))
	}
	testutil.CheckBatch(t, tree, dist, reqs, batchSizes,
		func(a, b string) bool { return a == b })
}
