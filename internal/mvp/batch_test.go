package mvp

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/quant"
	"mvptree/internal/testutil"
)

func vecEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mixedVectorRequests interleaves exact range, exact kNN, approximate,
// and budgeted requests over the query points so every batch chunk mixes
// the shared-traversal and fallback paths.
func mixedVectorRequests(queries [][]float64, radii []float64, ks []int) []index.Query[[]float64] {
	var reqs []index.Query[[]float64]
	for qi, q := range queries {
		reqs = append(reqs, index.RangeQuery(q, radii[qi%len(radii)]))
		reqs = append(reqs, index.KNNQuery(q, ks[qi%len(ks)]))
		switch qi % 4 {
		case 0: // (1+ε)-approximate range: fallback path inside the batch.
			r := index.RangeQuery(q, radii[0])
			r.Opts.Epsilon = 0.5
			reqs = append(reqs, r)
		case 1: // budgeted kNN: fallback path.
			r := index.KNNQuery(q, ks[0])
			r.Opts.Budget = 200
			reqs = append(reqs, r)
		case 2: // patience kNN: fallback path.
			r := index.KNNQuery(q, ks[len(ks)-1])
			r.Opts.Patience = 2
			reqs = append(reqs, r)
		case 3: // zero-radius point query on the shared path.
			reqs = append(reqs, index.RangeQuery(q, 0))
		}
	}
	return reqs
}

var batchSizes = []int{1, 4, 16, 64}

// TestBatchInvarianceUniform pins batch == sequential on uniform
// vectors under L2 with the quantized pre-filter armed — the registered
// block-kernel path plus quant consultation.
func TestBatchInvarianceUniform(t *testing.T) {
	items := uniformItems(101, 2500, 12)
	queries := uniformItems(102, 30, 12)
	queries = append(queries, items[3], items[1234])
	reqs := mixedVectorRequests(queries, []float64{0.4, 0.9}, []int{1, 10})
	eachV(t, Options{
		Partitions: 3, LeafCapacity: 20, PathLength: 4,
		Quantize: quant.SQ8, Build: Build{Seed: 9},
	}, func(t *testing.T, opts Options) {
		dist := metric.NewCounter(metric.L2)
		tree, err := New(items, dist, opts)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckBatch(t, tree, dist, reqs, batchSizes, vecEq)
	})
}

// TestBatchInvarianceClustered pins batch == sequential on clumped,
// duplicate-heavy vectors under L1 with the bound cascade armed — the
// group's blocked pivot distances and windows must be each query's own.
func TestBatchInvarianceClustered(t *testing.T) {
	items := clusteredItems(103, 2000, 10, 6)
	queries := uniformItems(104, 30, 10)
	for i := range queries {
		for j := range queries[i] {
			queries[i][j] *= 10 // match the clustered data's spread
		}
	}
	queries = append(queries, items[0], items[999])
	reqs := mixedVectorRequests(queries, []float64{0.5, 2.5}, []int{1, 8})
	eachV(t, Options{
		Partitions: 3, LeafCapacity: 24, PathLength: 4, Build: Build{Seed: 11},
	}, func(t *testing.T, opts Options) {
		dist := metric.NewCounter(metric.L1)
		tree, err := New(items, dist, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.EnableCascade(cascade.Options{}); err != nil {
			t.Fatal(err)
		}
		if sh := tree.Shape(); (sh.CascadePivots > 0) != (sh.LeafItems > 0) {
			t.Fatalf("EnableCascade armed %d pivots over %d leaf items", sh.CascadePivots, sh.LeafItems)
		}
		testutil.CheckBatch(t, tree, dist, reqs, batchSizes, vecEq)
	})
}

// TestBatchInvarianceEdit pins batch == sequential over strings under
// edit distance — a metric with no registered block kernel, so the
// fallback one-at-a-time block adapter carries the traversal.
func TestBatchInvarianceEdit(t *testing.T) {
	rng := rand.New(rand.NewPCG(105, 106))
	const letters = "abcdef"
	words := make([]string, 600)
	for i := range words {
		n := 3 + rng.IntN(6)
		b := make([]byte, n)
		for j := range b {
			b[j] = letters[rng.IntN(len(letters))]
		}
		words[i] = string(b)
	}
	var reqs []index.Query[string]
	for qi := 0; qi < 24; qi++ {
		q := words[rng.IntN(len(words))] + string(letters[rng.IntN(len(letters))])
		reqs = append(reqs, index.RangeQuery(q, float64(1+qi%3)))
		reqs = append(reqs, index.KNNQuery(q, 1+qi%7))
	}
	eachV(t, Options{
		Partitions: 2, LeafCapacity: 8, PathLength: 3, Build: Build{Seed: 13},
	}, func(t *testing.T, opts Options) {
		dist := metric.NewCounter(metric.Edit)
		tree, err := New(words, dist, opts)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckBatch(t, tree, dist, reqs, batchSizes,
			func(a, b string) bool { return a == b })
	})
}

// TestBatchEdgeCases covers the contract's edges: length mismatch
// panics, empty batches are no-ops, and empty trees answer cleanly.
func TestBatchEdgeCases(t *testing.T) {
	items := uniformItems(107, 50, 4)
	tree, err := New(items, metric.NewCounter(metric.L2), Options{
		Partitions: 2, LeafCapacity: 4, PathLength: 2, Build: Build{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SearchBatch with mismatched lengths did not panic")
			}
		}()
		tree.SearchBatch(make([]index.Query[[]float64], 2), make([]index.Result[[]float64], 1))
	}()
	tree.SearchBatch(nil, nil)

	empty, err := New(nil, metric.NewCounter(metric.L2), Options{Partitions: 2, LeafCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.5, 0.5, 0.5, 0.5}
	reqs := []index.Query[[]float64]{index.RangeQuery(q, 1), index.KNNQuery(q, 3)}
	res := make([]index.Result[[]float64], 2)
	empty.SearchBatch(reqs, res)
	if len(res[0].Items) != 0 || len(res[1].Neighbors) != 0 {
		t.Errorf("empty tree answered %d items / %d neighbors", len(res[0].Items), len(res[1].Neighbors))
	}

	// Negative radius and zero K behave like Search.
	neg := []index.Query[[]float64]{{Point: q, Radius: -1}, {Point: q, K: 0, Radius: 0.5}}
	resN := make([]index.Result[[]float64], 2)
	tree.SearchBatch(neg, resN)
	if len(resN[0].Items) != 0 {
		t.Errorf("negative radius answered %d items", len(resN[0].Items))
	}
	wantPoint := tree.Search(neg[1])
	if len(resN[1].Items) != len(wantPoint.Items) {
		t.Errorf("point query: %d batched items, %d sequential", len(resN[1].Items), len(wantPoint.Items))
	}
}

// TestBatchSteadyStateAllocations pins the pooled batch scratch: once
// warm, a batch of empty-result range queries allocates nothing.
func TestBatchSteadyStateAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	items := uniformItems(109, 2000, 8)
	far := []float64{100, 100, 100, 100, 100, 100, 100, 100}
	reqs := make([]index.Query[[]float64], 16)
	for i := range reqs {
		reqs[i] = index.RangeQuery(far, 0.5)
	}
	eachV(t, Options{Partitions: 3, LeafCapacity: 40, PathLength: 4, Build: Build{Seed: 7}}, func(t *testing.T, opts Options) {
		tree, err := New(items, metric.NewCounter(metric.L2), opts)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]index.Result[[]float64], len(reqs))
		tree.SearchBatch(reqs, results) // warm the pool
		if allocs := testing.AllocsPerRun(100, func() {
			tree.SearchBatch(reqs, results)
		}); allocs != 0 {
			t.Errorf("steady-state batch Range allocated %.1f times per batch, want 0", allocs)
		}
	})
}
