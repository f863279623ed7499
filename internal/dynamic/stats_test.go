package dynamic

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/obs"
	"mvptree/internal/testutil"
)

// newStatsStore builds a store with a mix of tree-resident, buffered and
// tombstoned items so the stats paths exercise every branch.
func newStatsStore(t *testing.T) (*Store[[]float64], [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 11))
	const dim = 4
	initial := make([][]float64, 150)
	for i := range initial {
		initial[i] = randVec(rng, dim)
	}
	s, err := New(initial, metric.L2, Options{
		Tree: mvp.Options{Partitions: 2, LeafCapacity: 8, PathLength: 3, Build: mvp.Build{Seed: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Buffer a few inserts (below the rebuild threshold) and tombstone a
	// few tree-resident items.
	for i := 0; i < 10; i++ {
		if err := s.Insert(randVec(rng, dim)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Delete(initial[i]); err != nil {
			t.Fatal(err)
		}
	}
	if s.Buffered() == 0 {
		t.Fatal("want a non-empty overflow buffer for the stats test")
	}
	queries := make([][]float64, 20)
	for i := range queries {
		queries[i] = randVec(rng, dim)
	}
	return s, queries
}

// TestWithStatsMatchesPlainQueries checks the delegation contract: the
// WithStats variants return exactly the plain results, and the reported
// Computed+VantagePoints equals the counter delta of the query.
func TestWithStatsMatchesPlainQueries(t *testing.T) {
	s, queries := newStatsStore(t)
	for _, q := range queries {
		before := s.DistanceCount()
		got, st := s.RangeWithStats(q, 0.4)
		delta := s.DistanceCount() - before
		if st.Distances() != delta {
			t.Fatalf("range: stats report %d distances, counter moved %d", st.Distances(), delta)
		}
		if st.Results != len(got) {
			t.Fatalf("range: Results = %d, got %d items", st.Results, len(got))
		}
		plain := s.Range(q, 0.4)
		if len(plain) != len(got) {
			t.Fatalf("range: plain returned %d items, WithStats %d", len(plain), len(got))
		}

		before = s.DistanceCount()
		nbs, st := s.KNNWithStats(q, 7)
		delta = s.DistanceCount() - before
		if st.Distances() != delta {
			t.Fatalf("knn: stats report %d distances, counter moved %d", st.Distances(), delta)
		}
		if st.Results != len(nbs) {
			t.Fatalf("knn: Results = %d, got %d neighbors", st.Results, len(nbs))
		}
		plainN := s.KNN(q, 7)
		if len(plainN) != len(nbs) {
			t.Fatalf("knn: plain returned %d, WithStats %d", len(plainN), len(nbs))
		}
		for i := range nbs {
			if plainN[i].Dist != nbs[i].Dist {
				t.Fatalf("knn: neighbor %d dist mismatch: %v vs %v", i, plainN[i].Dist, nbs[i].Dist)
			}
		}
	}
}

// TestStoreObserverTotals checks that an attached Observer's snapshot
// accounts for exactly the distances the store computed while serving
// queries.
func TestStoreObserverTotals(t *testing.T) {
	s, queries := newStatsStore(t)
	o := obs.NewObserver(4)
	s.SetObserver(o)
	before := s.DistanceCount()
	for _, q := range queries {
		s.Range(q, 0.4)
		s.KNN(q, 5)
	}
	delta := s.DistanceCount() - before
	snap := o.Snapshot()
	if snap.Distances != delta {
		t.Fatalf("observer saw %d distances, counter moved %d", snap.Distances, delta)
	}
	if want := int64(2 * len(queries)); snap.Queries != want {
		t.Fatalf("observer saw %d queries, want %d", snap.Queries, want)
	}
	if snap.Range.Queries != int64(len(queries)) || snap.KNN.Queries != int64(len(queries)) {
		t.Fatalf("per-kind query counts: range %d knn %d, want %d each",
			snap.Range.Queries, snap.KNN.Queries, len(queries))
	}
}

// TestQueryAllocations pins what a query allocates on a store with a
// tree, a buffer and tombstones: for range the tree's answer, which the
// buffer's matches join, and for kNN the tree's answer, the heap and the
// store's. While the store indexed IDs a query parked its item in a
// sync.Map under a slot ID, and allocated six times; while its tree held
// entry wrappers, range copied the tree's answer out of them, and
// allocated twice.
func TestQueryAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	words := dataset.Words(rand.New(rand.NewPCG(15, 3)), 1200, dataset.WordOptions{MinLen: 4, MaxLen: 9, MisspellingsPer: 2})
	s, err := New(words[:1000], metric.Edit, Options{Tree: mvp.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words[1000:] {
		if err := s.Insert(w); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if _, err := s.Delete(words[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Buffered() == 0 || s.treeDead == 0 {
		t.Fatalf("%d buffered, %d tombstones in the tree: want some of each", s.Buffered(), s.treeDead)
	}
	i := 0
	next := func() string { i++; return words[i%len(words)] }
	s.Range(next(), 1) // warm the tree's pooled scratch
	s.KNN(next(), 5)
	if n := testing.AllocsPerRun(200, func() { s.Range(next(), 1) }); n > 2 {
		t.Errorf("Range allocates %.1f times a query, want at most 2", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.KNN(next(), 5) }); n > 3 {
		t.Errorf("KNN allocates %.1f times a query, want at most 3", n)
	}
}
