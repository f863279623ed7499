package mvptree

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"testing"
	"time"
)

func obsTestData(n, dim int) ([][]float64, [][]float64) {
	rng := rand.New(rand.NewPCG(17, 29))
	items := make([][]float64, n)
	for i := range items {
		items[i] = randomVector(rng, dim)
	}
	queries := make([][]float64, 30)
	for i := range queries {
		queries[i] = randomVector(rng, dim)
	}
	return items, queries
}

func randomVector(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// TestWithObserverAccountsAllDistances is the tentpole's exactness
// claim at the facade: with an Observer attached at construction, the
// snapshot's distance total equals the index's DistanceCount delta over
// the same queries — for a sequential loop and for every batch worker
// count.
func TestWithObserverAccountsAllDistances(t *testing.T) {
	items, queries := obsTestData(1500, 6)
	o := NewObserver(0)
	tree, err := New(items, L2, Options{Partitions: 2, LeafCapacity: 20, PathLength: 4}, WithObserver[[]float64](o))
	if err != nil {
		t.Fatal(err)
	}
	before := tree.DistanceCount()
	for _, q := range queries {
		tree.Range(q, 0.4)
		tree.KNN(q, 5)
	}
	delta := tree.DistanceCount() - before
	snap := o.Snapshot()
	if snap.Distances != delta {
		t.Fatalf("observer saw %d distances, counter moved %d", snap.Distances, delta)
	}
	if snap.Queries != int64(2*len(queries)) {
		t.Fatalf("observer saw %d queries, want %d", snap.Queries, 2*len(queries))
	}

	// Same exactness through the batch executor, observer on the
	// executor side, across worker counts.
	for _, workers := range []int{1, 4} {
		bo := NewObserver(workers)
		_, stats, _ := BatchRange(tree, queries, 0.4, BatchOptions{Workers: workers, Observer: bo})
		snap := bo.Snapshot()
		if snap.Distances != stats.Distances {
			t.Fatalf("workers=%d: observer saw %d distances, batch measured %d",
				workers, snap.Distances, stats.Distances)
		}
	}
}

// TestWithCounterOption checks that WithCounter routes construction
// cost into the caller's shared counter, deterministically: two
// identical builds over two fresh counters land on the same count.
func TestWithCounterOption(t *testing.T) {
	items, _ := obsTestData(400, 5)
	opts := Options{Partitions: 2, LeafCapacity: 10, PathLength: 2}

	c1 := NewCounter(L2)
	if _, err := New(items, nil, opts, WithCounter(c1)); err != nil {
		t.Fatal(err)
	}
	c2 := NewCounter(L2)
	if _, err := New(items, nil, opts, WithCounter(c2)); err != nil {
		t.Fatal(err)
	}
	if c1.Count() == 0 || c1.Count() != c2.Count() {
		t.Fatalf("build cost through first counter %d, second %d", c1.Count(), c2.Count())
	}
}

// TestWithTracerFacade checks the tracer option end to end on a vp-tree:
// one span per query, whose stats account for every distance.
type eventCount struct {
	starts, dones int
	stats         SearchStats
}

func (e *eventCount) OnQueryStart(QueryKind) { e.starts++ }
func (e *eventCount) OnQueryDone(_ QueryKind, _ time.Duration, s SearchStats) {
	e.dones++
	e.stats.Add(s)
}

func TestWithTracerFacade(t *testing.T) {
	items, queries := obsTestData(600, 5)
	var ev eventCount
	tree, err := NewVP(items, L2, VPOptions{Order: 3, LeafCapacity: 8}, WithTracer[[]float64](&ev))
	if err != nil {
		t.Fatal(err)
	}
	before := tree.DistanceCount()
	for _, q := range queries {
		tree.Range(q, 0.4)
	}
	delta := tree.DistanceCount() - before
	if ev.starts != len(queries) || ev.dones != len(queries) {
		t.Fatalf("tracer saw %d starts / %d dones, want %d each", ev.starts, ev.dones, len(queries))
	}
	if ev.stats.Distances() != delta {
		t.Fatalf("tracer saw %d distances, counter moved %d", ev.stats.Distances(), delta)
	}
	if ev.stats.NodesVisited == 0 {
		t.Fatal("tracer saw no node visits")
	}
}

// TestSnapshotJSONExport checks the JSON exporter produces a parseable
// document with the headline totals.
func TestSnapshotJSONExport(t *testing.T) {
	items, queries := obsTestData(500, 5)
	o := NewObserver(2)
	tree, err := New(items, L2, Options{Partitions: 2, LeafCapacity: 16, PathLength: 2}, WithObserver[[]float64](o))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		tree.KNN(q, 3)
	}
	var buf bytes.Buffer
	if err := WriteSnapshotJSON(&buf, o); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if doc["queries"].(float64) != float64(len(queries)) {
		t.Fatalf("exported queries = %v, want %d", doc["queries"], len(queries))
	}
}

// Compile-time checks: the facade structures all satisfy StatsIndex.
var (
	_ StatsIndex[[]float64] = (*Tree[[]float64])(nil)
	_ StatsIndex[[]float64] = (*GeneralTree[[]float64])(nil)
	_ StatsIndex[[]float64] = (*VPTree[[]float64])(nil)
	_ StatsIndex[[]float64] = (*GNATree[[]float64])(nil)
	_ StatsIndex[string]    = (*BKTree[string])(nil)
	_ StatsIndex[[]float64] = (*BallTree[[]float64])(nil)
	_ StatsIndex[[]float64] = (*PivotTable[[]float64])(nil)
	_ StatsIndex[[]float64] = (*LinearScan[[]float64])(nil)
	_ StatsIndex[[]float64] = (*DynamicStore[[]float64])(nil)
)
