package dynamic

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// TestStoreAttachesBoundedKernel pins the fix for the store silently
// dropping the early-abandoning kernel: its counter is a closure over
// entries, which the bounded-kernel registry cannot match, so the item
// metric's registered fast path has to be attached by hand. Attached or
// detached, answers, order, SearchStats and distance counts must not
// differ — that is the BoundedDistanceFunc contract.
func TestStoreAttachesBoundedKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 3))
	words := dataset.Words(rng, 1500, dataset.WordOptions{MinLen: 4, MaxLen: 9, MisspellingsPer: 2})
	opts := Options{
		Tree:            mvp.Options{Partitions: 2, LeafCapacity: 10, PathLength: 4, Build: mvp.Build{Seed: 3}},
		RebuildFraction: 0.3,
	}
	build := func() *Store[string] {
		s, err := New(words[:1000], metric.Edit, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fast, exact := build(), build()
	if fast.dist.Bounded() == nil {
		t.Fatal("store over metric.Edit has no early-abandoning kernel attached")
	}
	exact.dist.SetBounded(nil)

	closure, err := New(words[:50], func(a, b string) float64 { return metric.Edit(a, b) }, opts)
	if err != nil {
		t.Fatal(err)
	}
	if closure.dist.Bounded() != nil {
		t.Fatal("an unregistered item metric must leave the store on the exact kernel")
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
// store is all buffer (no tree to muddy the tally), and the removed
// count and the counter total must not care which kernel ran.
func TestDeleteTailScanAbandons(t *testing.T) {
	words := []string{"alpha", "alphas", "beta", "gamma", "alpha", "delta", "epsilons"}
	s, err := New[string](nil, metric.Edit, Options{RebuildFraction: 100})
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
	bounded, calls := s.dist.Bounded(), 0
	s.dist.SetBounded(func(a, b entry[string], bound float64) float64 {
		calls++
		if bound != 0 {
			t.Errorf("tail scan asked the kernel for bound %g, want 0", bound)
		}
		return bounded(a, b, bound)
	})
	before := s.DistanceCount()
	removed, err := s.Delete("alpha")
	if err != nil || removed != 2 {
		t.Fatalf("Delete removed %d (%v), want 2", removed, err)
	}
	if calls != len(words) {
		t.Errorf("bounded kernel ran %d times over a buffer of %d", calls, len(words))
	}
	if got := s.DistanceCount() - before; got != int64(len(words)) {
		t.Errorf("Delete counted %d distances, want %d", got, len(words))
	}
}
