package shard

import (
	"math"
	"sort"
	"testing"

	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// Tie-breaking table test: a fixture built from groups of exactly
// coincident points, so the k-th distance is almost always a tie shared
// by several items. For every mode — unsharded tree and sharded
// sequential tightening at several shard counts — the returned
// distance multiset must equal the ground truth exactly, the list must
// be sorted, and repeated runs must return the identical sequence.
func TestKNNTieBreaking(t *testing.T) {
	// 120 items in 30 groups of 4 coincident 1-D points: data[i] = i/4.
	const n, group = 120, 4
	data := make([][]float64, n)
	for i := range data {
		data[i] = []float64{float64(i / group)}
	}
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	dist := func(a, b int) float64 { return math.Abs(data[a][0] - data[b][0]) }

	truthDists := func(q, k int) []float64 {
		ds := make([]float64, n)
		for i := range ds {
			ds[i] = dist(q, i)
		}
		sort.Float64s(ds)
		if k > n {
			k = n
		}
		return ds[:k]
	}

	cases := []struct {
		name string
		q    int // query item id (distance ties guaranteed by the groups)
		k    int
	}{
		{"k-inside-tie-group", 0, 2},  // 4 items at distance 0
		{"k-at-group-boundary", 0, 4}, // exactly one full group
		{"k-spans-groups", 17, 10},    // ties at 0 and 1 both cut
		{"k-large", 50, 37},           // deep tie ladder
		{"k-all", 90, n},              // everything
	}

	type mode struct {
		name          string
		deterministic bool
		run           func(q, k int) []float64 // returns result distances, validates internally
	}

	opts := mvp.Options{Partitions: 2, LeafCapacity: 4, PathLength: 3}
	unsharded, err := mvp.New(items, metric.NewCounter(dist), opts)
	if err != nil {
		t.Fatalf("mvp.New: %v", err)
	}
	modes := []mode{{
		name:          "unsharded",
		deterministic: true,
		run: func(q, k int) []float64 {
			return neighborDists(t, "unsharded", unsharded.KNN(q, k))
		},
	}, {
		name:          "unsharded/bounded-nil",
		deterministic: true,
		run: func(q, k int) []float64 {
			return neighborDists(t, "bounded-nil", unsharded.Search(index.KNNQuery(q, k)).Neighbors)
		},
	}}
	for _, s := range []int{2, 3, 5} {
		x, err := New(items, metric.NewCounter(dist), MVP[int](opts), Options{Shards: s, Seed: 7})
		if err != nil {
			t.Fatalf("shard.New S=%d: %v", s, err)
		}
		modes = append(modes, mode{
			name:          "sharded-seq/S=" + string(rune('0'+s)),
			deterministic: true,
			run: func(q, k int) []float64 {
				return neighborDists(t, "sharded-seq", x.KNN(q, k))
			},
		})
	}

	for _, tc := range cases {
		want := truthDists(tc.q, tc.k)
		for _, m := range modes {
			got := m.run(tc.q, tc.k)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d results, want %d", tc.name, m.name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: dist[%d]=%g, want %g (full: %v)", tc.name, m.name, i, got[i], want[i], got)
				}
			}
			if m.deterministic {
				again := m.run(tc.q, tc.k)
				for i := range again {
					if again[i] != got[i] {
						t.Fatalf("%s/%s: run-to-run distance drift at %d", tc.name, m.name, i)
					}
				}
			}
		}
	}
}

func neighborDists(t *testing.T, name string, nbs []index.Neighbor[int]) []float64 {
	t.Helper()
	out := make([]float64, len(nbs))
	for i, nb := range nbs {
		out[i] = nb.Dist
		if i > 0 && out[i] < out[i-1] {
			t.Fatalf("%s: result not sorted at %d", name, i)
		}
	}
	return out
}
