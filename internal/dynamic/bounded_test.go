package dynamic

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"mvptree/internal/build"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// TestStoreAttachesBoundedKernel pins the fix for the store silently
// dropping the early-abandoning kernel: the store's counter is the item
// metric's own, so the registry gives it metric.EditUpTo itself, with no
// adapter between, and a closure metric, which the registry cannot
// match, gets no kernel. Attached or detached, answers, order,
// SearchStats and distance counts must not differ — that is the
// BoundedDistanceFunc contract.
func TestStoreAttachesBoundedKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 3))
	words := dataset.Words(rng, 1500, dataset.WordOptions{MinLen: 4, MaxLen: 9, MisspellingsPer: 2})
	opts := Options{
		Tree: mvp.Options{Partitions: 2, LeafCapacity: 10, PathLength: 4, Build: mvp.Build{Seed: 3}},
	}
	build := func() *Store[string] {
		s, err := New(words[:1000], metric.Edit, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fast, exact := build(), build()
	if !sameFunc(fast.dist.Bounded(), metric.EditUpTo) || !sameFunc(fast.dist.Row(), metric.EditRow) {
		t.Fatal("the store's counter over metric.Edit does not have metric.EditUpTo and metric.EditRow")
	}
	exact.dist.SetBounded(nil)

	closure, err := New(words[:50], func(a, b string) float64 { return metric.Edit(a, b) }, opts)
	if err != nil {
		t.Fatal(err)
	}
	if closure.dist.Bounded() != nil || closure.dist.Row() != nil {
		t.Fatal("an unregistered item metric must leave the store on the exact kernel and the pair loop")
	}

	for step, w := range words[1000:] {
		// Writes keep the buffer tail and the tombstones populated; a
		// rebuild fires every few hundred of them.
		if err := fast.Insert(w); err != nil {
			t.Fatal(err)
		}
		if err := exact.Insert(w); err != nil {
			t.Fatal(err)
		}
		if step%3 == 0 {
			victim := words[rng.IntN(1000+step)]
			a, errA := fast.Delete(victim)
			b, errB := exact.Delete(victim)
			if errA != nil || errB != nil || a != b {
				t.Fatalf("step %d: Delete removed %d (%v) vs %d (%v)", step, a, errA, b, errB)
			}
		}
		if step%10 != 0 {
			continue
		}
		q := words[rng.IntN(len(words))]
		for _, r := range []float64{0, 1, 2.5} {
			gotItems, gotStats := fast.RangeWithStats(q, r)
			wantItems, wantStats := exact.RangeWithStats(q, r)
			if !reflect.DeepEqual(gotItems, wantItems) || gotStats != wantStats {
				t.Fatalf("step %d: Range(%q, %g) differs with the fast path attached:\n%v %+v\n%v %+v",
					step, q, r, gotItems, gotStats, wantItems, wantStats)
			}
		}
		for _, k := range []int{1, 5, 40} {
			gotNbrs, gotStats := fast.KNNWithStats(q, k)
			wantNbrs, wantStats := exact.KNNWithStats(q, k)
			if !reflect.DeepEqual(gotNbrs, wantNbrs) || gotStats != wantStats {
				t.Fatalf("step %d: KNN(%q, %d) differs with the fast path attached:\n%v %+v\n%v %+v",
					step, q, k, gotNbrs, gotStats, wantNbrs, wantStats)
			}
		}
		if a, b := fast.DistanceCount(), exact.DistanceCount(); a != b {
			t.Fatalf("step %d: distance counts diverged: %d attached, %d detached", step, a, b)
		}
	}
	if fast.Rebuilds() == 0 {
		t.Fatal("workload never rebuilt; the rebuilt tree's kernel went untested")
	}
}

// TestDeleteTailScanAbandons pins Delete's buffer-tail scan to the
// bounded kernel: "is the distance zero" is a threshold question, so
// EditUpTo's length and first-mismatch exits must get to answer it. The
// store is a tree of filler words with the words in its buffer — as many
// of them as the tree has items, so the cap keeps them there — and the
// tally is the buffer's calls and the counter total less the tree's
// query. Delete measures its distances to the pivots, the tree root's
// vantage points, and then only the buffered words at the same distance
// from each as the argument; the removed count and that total must not
// care which kernel ran.
func TestDeleteTailScanAbandons(t *testing.T) {
	words := []string{"alpha", "alphas", "beta", "gamma", "alpha", "delta", "epsilons"}
	filler := []string{"1", "22", "333", "4444", "55555", "666666", "7777777"}
	s, err := New(filler, metric.Edit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range words {
		if err := s.Insert(w); err != nil {
			t.Fatal(err)
		}
	}
	if s.Rebuilds() != 1 || s.Buffered() != len(words) {
		t.Fatalf("want every word in the buffer, got %d buffered after %d rebuilds", s.Buffered(), s.Rebuilds())
	}
	tree := s.tree.Search(index.RangeQuery("alpha", 0)).Stats.Distances()
	pivots := mvp.RootPoints(s.tree)
	if len(pivots) != 2 {
		t.Fatalf("the tree's root has %d vantage points, want 2", len(pivots))
	}
	measured := 0
	for _, w := range words {
		lb := 0.0
		for _, p := range pivots {
			lb = max(lb, math.Abs(metric.Edit("alpha", p)-metric.Edit(w, p)))
		}
		if lb == 0 {
			measured++
		}
	}
	if measured == len(words) {
		t.Fatalf("every buffered word is at alpha's distances from the pivots %v: nothing to filter", pivots)
	}
	bounded, calls := s.dist.Bounded(), 0
	s.dist.SetBounded(func(a, b string, bound float64) float64 {
		if !slices.Contains(filler, b) { // a buffered word
			calls++
			if bound != 0 {
				t.Errorf("tail scan asked the kernel for bound %g, want 0", bound)
			}
		}
		return bounded(a, b, bound)
	})
	before := s.DistanceCount()
	removed, err := s.Delete("alpha")
	if err != nil || removed != 2 || s.Rebuilds() != 1 {
		t.Fatalf("Delete removed %d (%v) and left %d rebuilds, want 2 and 1", removed, err, s.Rebuilds())
	}
	if calls != measured {
		t.Errorf("bounded kernel ran %d times over a buffer of %d, %d of them not ruled out by the pivots", calls, len(words), measured)
	}
	if got := s.DistanceCount() - before; got != int64(len(pivots)+measured)+tree {
		t.Errorf("Delete counted %d distances, want %d pivots, %d buffered words and the tree's %d", got, len(pivots), measured, tree)
	}
}

// TestStoreAttachesRowKernel: the store's counter is the item metric's
// own, so a rebuild measures its rows through the metric's registered row
// kernel, and builds the tree the pair loop builds, at the same cost, at
// any worker count.
func TestStoreAttachesRowKernel(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(16, 3)), 3000, dataset.WordOptions{MinLen: 3, MaxLen: 12, MisspellingsPer: 2})
	for _, workers := range []int{1, 3} {
		opts := Options{Tree: mvp.Options{Partitions: 3, LeafCapacity: 20, PathLength: 5, Build: mvp.Build{Workers: workers, Seed: 4}}}
		var saved [2][]byte
		var stats [2]build.Stats
		for i, kernel := range []bool{true, false} {
			s, err := New(words[:2000], metric.Edit, opts)
			if err != nil {
				t.Fatal(err)
			}
			row, rows := s.dist.Row(), atomic.Int64{}
			if !sameFunc(row, metric.EditRow) {
				t.Fatal("the store's counter over metric.Edit does not have metric.EditRow")
			}
			s.dist.SetRow(func(p string, items []string, ids []int32, out []float64) {
				rows.Add(1)
				row(p, items, ids, out)
			})
			if !kernel {
				s.dist.SetRow(nil)
			}
			for j, w := range words[2000:] {
				if err := s.Insert(w); err != nil {
					t.Fatal(err)
				}
				if j%5 == 0 {
					if _, err := s.Delete(words[j]); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Save compacts: a rebuild through the counter as it stands.
			var buf bytes.Buffer
			if err := s.Save(&buf, encodeWord); err != nil {
				t.Fatal(err)
			}
			if got := rows.Load() > 0; got != kernel {
				t.Fatalf("Workers %d, kernel %v: the rebuild measured %d rows through it", workers, kernel, rows.Load())
			}
			saved[i], stats[i] = buf.Bytes(), s.tree.BuildStats()
			stats[i].Wall = 0
		}
		if !bytes.Equal(saved[0], saved[1]) || stats[0] != stats[1] {
			t.Errorf("Workers %d: the row kernel's rebuild saves %d bytes with %+v, the pair loop's %d with %+v",
				workers, len(saved[0]), stats[0], len(saved[1]), stats[1])
		}
	}
}

// sameFunc reports whether f is the top-level function g.
func sameFunc[F, G any](f F, g G) bool {
	return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer()
}
