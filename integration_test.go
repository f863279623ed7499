package mvptree_test

// End-to-end integration across modules: generate a workload, build
// every structure, cross-check all query variants, persist and reload,
// then continue with dynamic updates — the full lifecycle a downstream
// user would run, exercised in one test.

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"

	"mvptree"
)

func TestFullLifecycle(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	dataset := mvptree.ClusteredVectors(rng, 2000, 10, 100, 0.15)
	queries := mvptree.UniformVectors(rng, 8, 10)

	// Stage 1: build the paper's configuration.
	tree, err := mvptree.New(dataset, mvptree.L2, mvptree.Options{
		Partitions: 3, LeafCapacity: 40, PathLength: 5, Build: mvptree.BuildOptions{Workers: 2, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	scan := mvptree.NewLinear(dataset, mvptree.L2)

	// Stage 2: all query variants agree with brute force.
	for _, q := range queries {
		r := 0.6
		if got, want := len(tree.Range(q, r)), len(scan.Range(q, r)); got != want {
			t.Fatalf("Range: %d vs %d", got, want)
		}
		if got, want := len(tree.RangeFarther(q, 2.0)), len(scan.RangeFarther(q, 2.0)); got != want {
			t.Fatalf("RangeFarther: %d vs %d", got, want)
		}
		nn, fn := tree.KNN(q, 7), scan.KNN(q, 7)
		for i := range nn {
			if nn[i].Dist != fn[i].Dist {
				t.Fatalf("KNN dist[%d]: %g vs %g", i, nn[i].Dist, fn[i].Dist)
			}
		}
		kf, lf := tree.KFarthest(q, 3), scan.KFarthest(q, 3)
		for i := range kf {
			if kf[i].Dist != lf[i].Dist {
				t.Fatalf("KFarthest dist[%d]: %g vs %g", i, kf[i].Dist, lf[i].Dist)
			}
		}
		budgeted := mvptree.Query[[]float64]{Point: q, K: 7, Opts: mvptree.SearchOptions{Budget: 1 << 40}}
		if got := tree.Search(budgeted); got.Neighbors[6].Dist != fn[6].Dist {
			t.Fatal("budgeted Search(∞) differs from exact")
		}
		if _, s := tree.RangeWithStats(q, r); s.Candidates != s.FilteredByD+s.FilteredByPath+s.Computed {
			t.Fatalf("stats accounting: %+v", s)
		}
	}

	// Stage 3: persist and reload; identical behaviour, zero cost.
	var buf bytes.Buffer
	if err := mvptree.SaveTree(&buf, tree, mvptree.EncodeVector); err != nil {
		t.Fatal(err)
	}
	loaded, err := mvptree.LoadTree(&buf, mvptree.L2, mvptree.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Counter().Count() != 0 {
		t.Fatalf("reload cost %d distance computations", loaded.Counter().Count())
	}
	for _, q := range queries {
		a, b := tree.KNN(q, 5), loaded.KNN(q, 5)
		for i := range a {
			if a[i].Dist != b[i].Dist {
				t.Fatal("reloaded tree answers differently")
			}
		}
	}

	// Stage 4: the collection evolves — switch to the dynamic store.
	store, err := mvptree.NewDynamic(dataset, mvptree.L2, mvptree.DynamicOptions{
		Tree: mvptree.Options{Partitions: 3, LeafCapacity: 40, PathLength: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	extra := mvptree.UniformVectors(rng, 700, 10)
	for _, v := range extra {
		if err := store.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	removedTotal := 0
	for i := 0; i < 50; i++ {
		n, err := store.Delete(dataset[i*7])
		if err != nil {
			t.Fatal(err)
		}
		removedTotal += n
	}
	if store.Len() != 2000+700-removedTotal {
		t.Fatalf("Len = %d after churn", store.Len())
	}
	// Final agreement check against a fresh model of the same state.
	model := append([][]float64{}, extra...)
	deleted := map[int]bool{}
	for i := 0; i < 50; i++ {
		deleted[i*7] = true
	}
	for i, v := range dataset {
		if !deleted[i] {
			model = append(model, v)
		}
	}
	modelScan := mvptree.NewLinear(model, mvptree.L2)
	for _, q := range queries {
		if got, want := len(store.Range(q, 0.6)), len(modelScan.Range(q, 0.6)); got != want {
			t.Fatalf("post-churn Range: %d vs %d", got, want)
		}
	}
}

// TestConcurrentQueriesAllStructures is the concurrency smoke test for
// the public API: every exported index type serves a mixed Range/KNN
// load from N goroutines sharing one instance, and every concurrent
// answer must equal the sequential answer. Run under -race (CI does)
// this also proves the query paths share no mutable state beyond the
// atomic distance Counter.
func TestConcurrentQueriesAllStructures(t *testing.T) {
	rng := rand.New(rand.NewPCG(88, 2))
	vectors := mvptree.UniformVectors(rng, 1200, 8)
	vecQueries := mvptree.UniformVectors(rng, 6, 8)
	words := []string{
		"metric", "space", "vantage", "point", "tree", "index", "query",
		"range", "neighbor", "distance", "triangle", "inequality", "shell",
		"partition", "leaf", "path", "filter", "pivot", "search", "batch",
	}
	wordQueries := []string{"metric", "tre", "pint", "queery"}

	type vecCase struct {
		name  string
		build func() (mvptree.Index[[]float64], error)
	}
	vecCases := []vecCase{
		{"mvp", func() (mvptree.Index[[]float64], error) {
			return mvptree.New(vectors, mvptree.L2, mvptree.Options{Partitions: 3, LeafCapacity: 20, PathLength: 4, Build: mvptree.BuildOptions{Seed: 1}})
		}},
		{"vp", func() (mvptree.Index[[]float64], error) {
			return mvptree.NewVP(vectors, mvptree.L2, mvptree.VPOptions{Order: 3, Build: mvptree.BuildOptions{Seed: 1}})
		}},
		{"gnat", func() (mvptree.Index[[]float64], error) {
			return mvptree.NewGNAT(vectors, mvptree.L2, mvptree.GNATOptions{})
		}},
		{"ball", func() (mvptree.Index[[]float64], error) {
			return mvptree.NewBall(vectors, mvptree.L2, mvptree.BallOptions{})
		}},
		{"pivot", func() (mvptree.Index[[]float64], error) {
			return mvptree.NewPivotTable(vectors, mvptree.L2, mvptree.PivotOptions{Pivots: 8, Build: mvptree.BuildOptions{Seed: 1}})
		}},
		{"general", func() (mvptree.Index[[]float64], error) {
			return mvptree.NewGeneral(vectors, mvptree.L2, mvptree.GeneralOptions{Vantages: 3, Partitions: 2, Build: mvptree.BuildOptions{Seed: 1}})
		}},
		{"linear", func() (mvptree.Index[[]float64], error) {
			return mvptree.NewLinear(vectors, mvptree.L2), nil
		}},
		{"dynamic", func() (mvptree.Index[[]float64], error) {
			return mvptree.NewDynamic(vectors, mvptree.L2, mvptree.DynamicOptions{
				Tree: mvptree.Options{Partitions: 2, LeafCapacity: 20, PathLength: 3, Build: mvptree.BuildOptions{Seed: 1}},
			})
		}},
	}
	for _, tc := range vecCases {
		t.Run(tc.name, func(t *testing.T) {
			idx, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			checkConcurrentAgreement(t, idx, vecQueries, 0.6, 5)
		})
	}
	t.Run("bk", func(t *testing.T) {
		idx, err := mvptree.NewBK(words, mvptree.EditDistance)
		if err != nil {
			t.Fatal(err)
		}
		checkConcurrentAgreement(t, mvptree.Index[string](idx), wordQueries, 2, 3)
	})
}

// checkConcurrentAgreement answers each query sequentially first, then
// fires goroutines repeating the same mixed Range/KNN load concurrently
// against the shared index and compares every answer.
func checkConcurrentAgreement[T any](t *testing.T, idx mvptree.Index[T], queries []T, r float64, k int) {
	t.Helper()
	wantRange := make([][]T, len(queries))
	wantKNN := make([][]mvptree.Neighbor[T], len(queries))
	for i, q := range queries {
		wantRange[i] = idx.Range(q, r)
		wantKNN[i] = idx.KNN(q, k)
	}
	var wg sync.WaitGroup
	const goroutines = 8
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				i := (g + rep) % len(queries)
				q := queries[i]
				if got := idx.Range(q, r); len(got) != len(wantRange[i]) {
					t.Errorf("goroutine %d: Range returned %d items, sequential %d", g, len(got), len(wantRange[i]))
					return
				}
				got := idx.KNN(q, k)
				if len(got) != len(wantKNN[i]) {
					t.Errorf("goroutine %d: KNN returned %d items, sequential %d", g, len(got), len(wantKNN[i]))
					return
				}
				for j := range got {
					if got[j].Dist != wantKNN[i][j].Dist {
						t.Errorf("goroutine %d: KNN[%d].Dist = %g, sequential %g", g, j, got[j].Dist, wantKNN[i][j].Dist)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchExecutorPublicAPI drives the exported BatchRange/BatchKNN
// wrappers end to end: deterministic results across worker counts and a
// Counter delta that reconciles with the aggregated SearchStats.
func TestBatchExecutorPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewPCG(89, 2))
	vectors := mvptree.UniformVectors(rng, 1500, 8)
	queries := mvptree.UniformVectors(rng, 12, 8)
	tree, err := mvptree.New(vectors, mvptree.L2, mvptree.Options{Partitions: 3, LeafCapacity: 40, PathLength: 4, Build: mvptree.BuildOptions{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	tree.Counter().Reset()
	seqRes, seqStats, _ := mvptree.BatchRange[[]float64](tree, queries, 0.5, mvptree.BatchOptions{Workers: 1})
	tree.Counter().Reset()
	parRes, parStats, _ := mvptree.BatchRange[[]float64](tree, queries, 0.5, mvptree.BatchOptions{Workers: 8})
	if seqStats.Distances != parStats.Distances {
		t.Errorf("batch cost %d with 1 worker, %d with 8", seqStats.Distances, parStats.Distances)
	}
	if seqStats.Distances == 0 {
		t.Error("batch made no distance computations")
	}
	if parStats.Search != seqStats.Search {
		t.Errorf("aggregated SearchStats differ across worker counts")
	}
	if got := int64(parStats.Search.Computed + parStats.Search.VantagePoints); got != parStats.Distances {
		t.Errorf("SearchStats account for %d computations, Counter delta %d", got, parStats.Distances)
	}
	for i := range queries {
		if len(seqRes[i]) != len(parRes[i]) {
			t.Errorf("query %d: %d results sequential, %d parallel", i, len(seqRes[i]), len(parRes[i]))
		}
	}
	if _, stats, _ := mvptree.BatchKNN[[]float64](tree, queries, 5, mvptree.BatchOptions{Workers: 4}); stats.Search.Distances() != stats.Distances || stats.Distances == 0 {
		t.Errorf("BatchKNN over an mvp-tree: aggregated SearchStats account for %d computations, Counter delta %d", stats.Search.Distances(), stats.Distances)
	}
}
