package qexec

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/index"
)

// TestRunBatchMatchesUnbatched pins the executor's Batch option: for
// every (Workers, Batch) combination, results, per-worker attribution,
// aggregated SearchStats and the Counter delta are byte-identical to
// the unbatched run — the shared traversal changes wall-clock time
// only.
func TestRunBatchMatchesUnbatched(t *testing.T) {
	tree, c, queries := testTree(t)
	const r, k = 0.5, 7

	c.Reset()
	wantR, wantRS, _ := RunRange[[]float64](tree, queries, r, Options{Workers: 1})
	c.Reset()
	wantK, wantKS, _ := RunKNN[[]float64](tree, queries, k, Options{Workers: 1})

	for _, workers := range []int{1, 3} {
		for _, batch := range []int{2, 8, 64} {
			opts := Options{Workers: workers, Batch: batch}
			c.Reset()
			gotR, statsR, err := RunRange[[]float64](tree, queries, r, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotR, wantR) {
				t.Errorf("W=%d B=%d: range results differ from unbatched", workers, batch)
			}
			if statsR.Distances != wantRS.Distances || statsR.Search != wantRS.Search {
				t.Errorf("W=%d B=%d: range stats differ: %d/%+v vs %d/%+v",
					workers, batch, statsR.Distances, statsR.Search, wantRS.Distances, wantRS.Search)
			}
			if statsR.Answered != len(queries) {
				t.Errorf("W=%d B=%d: answered %d of %d", workers, batch, statsR.Answered, len(queries))
			}
			for i, ok := range statsR.AnsweredMask {
				if !ok {
					t.Errorf("W=%d B=%d: AnsweredMask[%d] false after complete run", workers, batch, i)
				}
			}
			c.Reset()
			gotK, statsK, err := RunKNN[[]float64](tree, queries, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotK, wantK) {
				t.Errorf("W=%d B=%d: kNN results differ from unbatched", workers, batch)
			}
			if statsK.Distances != wantKS.Distances || statsK.Search != wantKS.Search {
				t.Errorf("W=%d B=%d: kNN stats differ", workers, batch)
			}
			// Striped attribution is unchanged by chunking.
			for w := range statsK.PerWorker {
				wantQ := (len(queries) - w + statsK.Workers - 1) / statsK.Workers
				if statsK.PerWorker[w].Queries != wantQ {
					t.Errorf("W=%d B=%d: worker %d answered %d, want %d",
						workers, batch, w, statsK.PerWorker[w].Queries, wantQ)
				}
			}
		}
	}
}

// TestRunBatchApproximate routes a budgeted batch through the Batch
// option: SearchBatch answers approximate members by per-query Search
// fallback, so every result — its Exhausted flag included — matches the
// unbatched approximate run exactly, and RunRange spells the same
// requests from Options.Search.
func TestRunBatchApproximate(t *testing.T) {
	tree, c, queries := testTree(t)
	budget := index.SearchOptions{Budget: 150}
	reqs := make([]index.Query[[]float64], len(queries))
	for i, q := range queries {
		reqs[i] = index.Query[[]float64]{Point: q, Radius: 0.6, Opts: budget}
	}
	c.Reset()
	want, wantStats, _ := Run[[]float64](tree, reqs, Options{Workers: 1})
	c.Reset()
	got, gotStats, err := Run[[]float64](tree, reqs, Options{Workers: 1, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("batched budgeted results differ from unbatched")
	}
	if gotStats.Distances != wantStats.Distances || gotStats.Search != wantStats.Search {
		t.Errorf("batched budgeted stats differ: %+v vs %+v", gotStats.Search, wantStats.Search)
	}
	exhausted := 0
	for _, res := range got {
		if res.Exhausted() {
			exhausted++
		}
	}
	if exhausted == 0 || exhausted != gotStats.Search.BudgetExhausted {
		t.Errorf("%d results say Exhausted, summed stats say %d, want the same and > 0", exhausted, gotStats.Search.BudgetExhausted)
	}
	items, _, err := RunRange[[]float64](tree, queries, 0.6, Options{Workers: 1, Batch: 8, Search: budget})
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if !reflect.DeepEqual(items[i], want[i].Items) {
			t.Fatalf("RunRange with Options.Search: results[%d] differs from Run", i)
		}
	}
}

// TestOptionValidationTable pins the executor's option defaulting:
// Workers <= 0 means runtime.GOMAXPROCS(0), the worker count is capped
// at the batch size, and Batch never changes the answered-query
// accounting.
func TestOptionValidationTable(t *testing.T) {
	tree, _, _ := testTree(t)
	rng := rand.New(rand.NewPCG(35, 7))
	queries := dataset.UniformQueries(rng, 12, 8)
	gomax := runtime.GOMAXPROCS(0)
	cases := []struct {
		name        string
		opts        Options
		nq          int
		wantWorkers int
	}{
		{"zero defaults to GOMAXPROCS", Options{Workers: 0}, 12, min(gomax, 12)},
		{"negative defaults to GOMAXPROCS", Options{Workers: -4}, 12, min(gomax, 12)},
		{"explicit one", Options{Workers: 1}, 12, 1},
		{"capped at batch size", Options{Workers: 64}, 12, 12},
		{"empty batch still one worker", Options{Workers: 0}, 0, 1},
		{"batch option keeps worker math", Options{Workers: 3, Batch: 4}, 12, 3},
		{"batch of one is unbatched", Options{Workers: 2, Batch: 1}, 12, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, stats, err := RunRange[[]float64](tree, queries[:tc.nq], 0.4, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Workers != tc.wantWorkers {
				t.Errorf("Workers = %d, want %d", stats.Workers, tc.wantWorkers)
			}
			if len(res) != tc.nq || stats.Queries != tc.nq || stats.Answered != tc.nq {
				t.Errorf("answered %d/%d results for %d queries", stats.Answered, len(res), tc.nq)
			}
		})
	}
}
