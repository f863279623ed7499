package shard

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/testutil"
)

var mvpOpts = mvp.Options{Partitions: 3, LeafCapacity: 13, PathLength: 5}
var vpOpts = mvp.Options{Vantages: 1, Partitions: 3, LeafCapacity: 7, PathLength: -1}

func backends() map[string]func() Backend[int] {
	return map[string]func() Backend[int]{
		"mvp": func() Backend[int] { return MVP[int](mvpOpts) },
		"vp":  func() Backend[int] { return MVP[int](vpOpts) },
	}
}

func sortedIDs(items []int) []int {
	out := append([]int(nil), items...)
	sort.Ints(out)
	return out
}

// The headline invariance: a sharded index answers every range query
// with exactly the same item set as the unsharded tree over the same
// points, for every shard count, assignment and backend.
func TestShardedRangeMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 2))
	w := testutil.NewVectorWorkload(rng, 500, 8, 10, metric.L2)
	for name, mk := range backends() {
		for _, assignment := range []Assignment{RoundRobin, Balanced} {
			for _, s := range []int{1, 2, 3, 7} {
				c := metric.NewCounter(w.Dist)
				x, bs, err := NewWithStats(w.Items, c, mk(), Options{
					Shards: s, Assignment: assignment, Workers: 4, Seed: 7,
				})
				if err != nil {
					t.Fatalf("%s S=%d: NewWithStats: %v", name, s, err)
				}
				if x.Len() != len(w.Items) {
					t.Fatalf("%s S=%d: Len=%d, want %d", name, s, x.Len(), len(w.Items))
				}
				sizes := 0
				for _, n := range bs.ShardSizes {
					sizes += n
					if n == 0 {
						t.Fatalf("%s S=%d %v: empty shard (sizes %v)", name, s, assignment, bs.ShardSizes)
					}
				}
				if sizes != len(w.Items) {
					t.Fatalf("%s S=%d: shard sizes sum to %d", name, s, sizes)
				}
				testutil.CheckRange(t, name+"-sharded", x, w, []float64{0, 0.2, 0.5, 1.0})
				testutil.CheckKNN(t, name+"-sharded", x, w, []int{1, 3, 10, 600})

				// Search is what the wrappers answer, stats included.
				for _, q := range w.Queries[:4] {
					want, wantStats := x.RangeWithStats(q, 0.6)
					res := x.Search(index.RangeQuery(q, 0.6))
					if !slices.Equal(res.Items, want) || res.Stats != wantStats {
						t.Fatalf("%s S=%d: Search %v / %+v, RangeWithStats %v / %+v", name, s, res.Items, res.Stats, want, wantStats)
					}
				}
			}
		}
	}
}

// Sequential-tightening kNN is deterministic: repeated runs return the
// identical neighbor list and identical distance count, and the
// distances always match the ground truth.
func TestShardedKNNSequentialDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 2))
	w := testutil.NewVectorWorkload(rng, 400, 6, 8, metric.L2)
	for name, mk := range backends() {
		c := metric.NewCounter(w.Dist)
		x, err := New(w.Items, c, mk(), Options{Shards: 4, Workers: 2, Seed: 7})
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		for _, q := range w.Queries {
			for _, k := range []int{1, 5, 20} {
				before := c.Count()
				first, firstStats := x.KNNWithStats(q, k)
				firstCost := c.Count() - before
				for rep := 0; rep < 3; rep++ {
					before = c.Count()
					got, gotStats := x.KNNWithStats(q, k)
					cost := c.Count() - before
					if gotStats != firstStats || cost != firstCost {
						t.Fatalf("%s q=%d k=%d rep=%d: stats/cost changed: %+v/%d vs %+v/%d",
							name, q, k, rep, gotStats, cost, firstStats, firstCost)
					}
					if len(got) != len(first) {
						t.Fatalf("%s q=%d k=%d rep=%d: %d results, want %d", name, q, k, rep, len(got), len(first))
					}
					for i := range got {
						if got[i] != first[i] {
							t.Fatalf("%s q=%d k=%d rep=%d: result[%d] changed", name, q, k, rep, i)
						}
					}
				}
				if gotStats := firstStats; int64(gotStats.Computed+gotStats.VantagePoints) != firstCost {
					t.Fatalf("%s q=%d k=%d: stats say %d distances, counter says %d",
						name, q, k, gotStats.Computed+gotStats.VantagePoints, firstCost)
				}
			}
		}
	}
}

// The balanced assignment is a deterministic function of (items, S,
// seed): two builds produce identical partitions, and the dealt shard
// sizes differ by at most one.
func TestBalancedAssignmentDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 2))
	w := testutil.NewVectorWorkload(rng, 300, 5, 2, metric.L2)
	mk := func() (*Index[int], BuildStats) {
		c := metric.NewCounter(w.Dist)
		x, bs, err := NewWithStats(w.Items, c, MVP[int](mvpOpts), Options{
			Shards: 4, Assignment: Balanced, Workers: 3, Seed: 99,
		})
		if err != nil {
			t.Fatalf("NewWithStats: %v", err)
		}
		return x, bs
	}
	a, abs := mk()
	b, bbs := mk()
	if abs.AssignDistances != int64(len(w.Items)) {
		t.Fatalf("AssignDistances=%d, want %d", abs.AssignDistances, len(w.Items))
	}
	for i := range abs.ShardSizes {
		if abs.ShardSizes[i] != bbs.ShardSizes[i] {
			t.Fatalf("shard sizes differ between identical builds: %v vs %v", abs.ShardSizes, bbs.ShardSizes)
		}
		if diff := abs.ShardSizes[i] - abs.ShardSizes[0]; diff < -1 || diff > 1 {
			t.Fatalf("balanced sizes not within one: %v", abs.ShardSizes)
		}
	}
	for i := 0; i < a.Shards(); i++ {
		ga := sortedIDs(a.Shard(i).Range(w.Queries[0], 1e9))
		gb := sortedIDs(b.Shard(i).Range(w.Queries[0], 1e9))
		if len(ga) != len(gb) {
			t.Fatalf("shard %d contents differ", i)
		}
		for j := range ga {
			if ga[j] != gb[j] {
				t.Fatalf("shard %d contents differ at %d", i, j)
			}
		}
	}
}

// mergeKNNHeap is the threshold-merge reference mergeKNN is checked
// against: push everything through a k-best heap.
func mergeKNNHeap[T any](lists [][]index.Neighbor[T], k int) []index.Neighbor[T] {
	best := heapx.NewKBest[T](k, k)
	for _, l := range lists {
		for _, nb := range l {
			best.Push(nb.Item, nb.Dist)
		}
	}
	return best.Sorted()
}

// mergeKNN agrees with the heap-based merge on randomized inputs.
func TestMergeKNNCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 2))
	for trial := 0; trial < 200; trial++ {
		lists := make([][]index.Neighbor[int], 1+rng.IntN(5))
		id := 0
		for i := range lists {
			n := rng.IntN(6)
			ds := make([]float64, n)
			for j := range ds {
				ds[j] = float64(rng.IntN(8)) // many duplicate distances
			}
			sort.Float64s(ds)
			for _, d := range ds {
				lists[i] = append(lists[i], index.Neighbor[int]{Item: id, Dist: d})
				id++
			}
		}
		k := 1 + rng.IntN(10)
		a := mergeKNN(lists, k)
		b := mergeKNNHeap(lists, k)
		if len(a) != len(b) {
			t.Fatalf("trial %d: lengths %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].Dist != b[i].Dist {
				t.Fatalf("trial %d: dist[%d] %g vs %g", trial, i, a[i].Dist, b[i].Dist)
			}
		}
	}
}

func TestShardEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 2))
	w := testutil.NewVectorWorkload(rng, 5, 4, 2, metric.L2)
	c := metric.NewCounter(w.Dist)
	// More shards than items: clamp, no empty shard.
	x, bs, err := NewWithStats(w.Items, c, MVP[int](mvpOpts), Options{Shards: 12, Workers: 2})
	if err != nil {
		t.Fatalf("NewWithStats: %v", err)
	}
	if x.Shards() != 5 || len(bs.ShardSizes) != 5 {
		t.Fatalf("shard count %d (sizes %v), want clamp to 5", x.Shards(), bs.ShardSizes)
	}
	testutil.CheckRange(t, "tiny", x, w, []float64{0.5, 2})
	// Empty build.
	e, err := New(nil, metric.NewCounter(w.Dist), MVP[int](mvpOpts), Options{Shards: 3})
	if err != nil {
		t.Fatalf("empty New: %v", err)
	}
	if e.Len() != 0 || e.Range(w.Queries[0], 10) != nil {
		t.Fatalf("empty index answered non-empty")
	}
	if got := e.KNN(w.Queries[0], 3); got != nil {
		t.Fatalf("empty KNN: %v", got)
	}
	// k <= 0.
	if got := x.KNN(w.Queries[0], 0); got != nil {
		t.Fatalf("k=0: %v", got)
	}
}
