package qexec

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

func testTree(t *testing.T) (*mvp.Tree[[]float64], *metric.Counter[[]float64], [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(33, 7))
	items := dataset.UniformVectors(rng, 2000, 8)
	queries := dataset.UniformQueries(rng, 25, 8)
	c := metric.NewCounter(metric.L2)
	tree, err := mvp.New(items, c, mvp.Options{Partitions: 3, LeafCapacity: 40, PathLength: 4, Build: mvp.Build{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	return tree, c, queries
}

// TestRunRangeDeterministicAcrossWorkers is the executor's core
// contract: results and distance counts are identical for every worker
// count — parallelism must change wall-clock time only, never the
// paper's cost metric.
func TestRunRangeDeterministicAcrossWorkers(t *testing.T) {
	tree, c, queries := testTree(t)
	const r = 0.5

	c.Reset()
	seqRes, seqStats, _ := RunRange[[]float64](tree, queries, r, Options{Workers: 1})
	if seqStats.Workers != 1 {
		t.Fatalf("Workers = %d, want 1", seqStats.Workers)
	}
	for _, workers := range []int{2, 4, 8, 100} {
		c.Reset()
		res, stats, _ := RunRange[[]float64](tree, queries, r, Options{Workers: workers})
		if stats.Distances != seqStats.Distances {
			t.Errorf("workers=%d: %d distance computations, sequential made %d", workers, stats.Distances, seqStats.Distances)
		}
		if !reflect.DeepEqual(res, seqRes) {
			t.Errorf("workers=%d: results differ from sequential run", workers)
		}
		if stats.Search != seqStats.Search {
			t.Errorf("workers=%d: aggregated SearchStats differ: %+v vs %+v", workers, stats.Search, seqStats.Search)
		}
	}
}

// TestRunRangeOrderingAndStats checks result indexing against direct
// sequential calls and reconciles the three cost views: Counter delta,
// aggregated SearchStats and the per-worker breakdown.
func TestRunRangeOrderingAndStats(t *testing.T) {
	tree, c, queries := testTree(t)
	const r = 0.4

	want := make([][][]float64, len(queries))
	for i, q := range queries {
		want[i] = tree.Range(q, r)
	}
	c.Reset()
	res, stats, _ := RunRange[[]float64](tree, queries, r, Options{Workers: 3})
	if len(res) != len(queries) {
		t.Fatalf("%d results for %d queries", len(res), len(queries))
	}
	for i := range res {
		if !reflect.DeepEqual(res[i], want[i]) {
			t.Fatalf("results[%d] does not answer queries[%d]", i, i)
		}
	}
	if got := int64(stats.Search.Computed + stats.Search.VantagePoints); got != stats.Distances {
		t.Fatalf("SearchStats account for %d computations, Counter delta is %d", got, stats.Distances)
	}
	var perWorker WorkerStats
	nq := 0
	for w, ws := range stats.PerWorker {
		nq += ws.Queries
		// Striping: worker w answers ceil((n-w)/W) queries.
		wantQ := (len(queries) - w + stats.Workers - 1) / stats.Workers
		if ws.Queries != wantQ {
			t.Errorf("worker %d answered %d queries, want %d", w, ws.Queries, wantQ)
		}
		perWorker.Search.Add(ws.Search)
	}
	if nq != len(queries) {
		t.Fatalf("workers answered %d queries in total, want %d", nq, len(queries))
	}
	if perWorker.Search != stats.Search {
		t.Fatalf("per-worker stats sum %+v != total %+v", perWorker.Search, stats.Search)
	}
}

// TestRunKNNMatchesSequential checks KNN batches against direct calls
// and the stats plumbing through KNNWithStats.
func TestRunKNNMatchesSequential(t *testing.T) {
	tree, c, queries := testTree(t)
	const k = 9

	want := make([][]float64, len(queries))
	for i, q := range queries {
		for _, nb := range tree.KNN(q, k) {
			want[i] = append(want[i], nb.Dist)
		}
	}
	c.Reset()
	res, stats, _ := RunKNN[[]float64](tree, queries, k, Options{Workers: 5})
	for i := range res {
		if len(res[i]) != len(want[i]) {
			t.Fatalf("results[%d] has %d neighbors, want %d", i, len(res[i]), len(want[i]))
		}
		for j, nb := range res[i] {
			if nb.Dist != want[i][j] {
				t.Fatalf("results[%d][%d].Dist = %g, want %g", i, j, nb.Dist, want[i][j])
			}
		}
	}
	if got := int64(stats.Search.Computed + stats.Search.VantagePoints); got != stats.Distances {
		t.Fatalf("SearchStats account for %d computations, Counter delta is %d", got, stats.Distances)
	}
	// k <= 0 is an empty kNN answer on every route — never the range
	// request a Query with K == 0 spells.
	for _, opts := range []Options{{Workers: 2}, {Workers: 2, Batch: 4}} {
		res, stats, _ := RunKNN[[]float64](tree, queries, 0, opts)
		for i := range res {
			if res[i] != nil {
				t.Fatalf("batch=%d: k=0 results[%d] = %v, want nil", opts.Batch, i, res[i])
			}
		}
		if stats.Distances != 0 {
			t.Fatalf("batch=%d: k=0 computed %d distances, want 0", opts.Batch, stats.Distances)
		}
	}
}

// TestRunEdgeCases: empty batches and defaulted worker counts must not
// panic or mis-size outputs.
func TestRunEdgeCases(t *testing.T) {
	tree, _, _ := testTree(t)
	res, stats, _ := RunRange[[]float64](tree, nil, 0.5, Options{})
	if len(res) != 0 || stats.Queries != 0 || stats.Workers != 1 {
		t.Fatalf("empty batch: res=%d stats=%+v", len(res), stats)
	}
	one := [][]float64{make([]float64, 8)}
	res2, stats2, _ := RunKNN[[]float64](tree, one, 3, Options{Workers: 64})
	if len(res2) != 1 || stats2.Workers != 1 {
		t.Fatalf("single query: %d results, %d workers", len(res2), stats2.Workers)
	}
}
