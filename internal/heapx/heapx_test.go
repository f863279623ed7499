package heapx

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestKBestKeepsSmallest(t *testing.T) {
	h := NewKBest[int](3, 3)
	dists := []float64{5, 1, 9, 3, 7, 2, 8}
	for i, d := range dists {
		h.Push(i, d)
	}
	got := h.Sorted()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	wantDists := []float64{1, 2, 3}
	for i, n := range got {
		if n.Dist != wantDists[i] {
			t.Errorf("Sorted()[%d].Dist = %g, want %g", i, n.Dist, wantDists[i])
		}
	}
}

func TestKBestUnderfull(t *testing.T) {
	h := NewKBest[string](10, 10)
	h.Push("a", 2)
	h.Push("b", 1)
	if h.Full() {
		t.Error("heap reports full with 2/10 items")
	}
	if _, ok := h.Bound(); ok {
		t.Error("underfull heap reported a bound")
	}
	got := h.Sorted()
	if len(got) != 2 || got[0].Item != "b" || got[1].Item != "a" {
		t.Errorf("Sorted() = %v", got)
	}
}

func TestKBestBoundAndAccepts(t *testing.T) {
	h := NewKBest[int](2, 2)
	h.Push(0, 4)
	h.Push(1, 6)
	if w, ok := h.Bound(); !ok || w != 6 {
		t.Errorf("Bound() = %g, %v; want 6, true", w, ok)
	}
	if h.Accepts(6) {
		t.Error("Accepts(6) = true with bound 6; equal distance must be rejected")
	}
	if !h.Accepts(5.9) {
		t.Error("Accepts(5.9) = false with bound 6")
	}
	h.Push(2, 1)
	if w, _ := h.Bound(); w != 4 {
		t.Errorf("bound after displacement = %g, want 4", w)
	}
}

func TestKBestPanicsOnNonPositiveK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewKBest(0) did not panic")
		}
	}()
	NewKBest[int](0, 0)
}

// Property: KBest(k) over any distance sequence returns exactly the k
// smallest distances in ascending order.
func TestKBestMatchesSortQuick(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		h := NewKBest[int](k, k)
		clean := make([]float64, 0, len(raw))
		for i, d := range raw {
			if d != d || d < 0 { // skip NaN and negatives; distances are non-negative
				continue
			}
			clean = append(clean, d)
			h.Push(i, d)
		}
		sort.Float64s(clean)
		want := clean
		if len(want) > k {
			want = want[:k]
		}
		got := h.Sorted()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Dist != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNodeQueueOrdering(t *testing.T) {
	var q NodeQueue[string]
	q.PushNode("c", 3)
	q.PushNode("a", 1)
	q.PushNode("d", 4)
	q.PushNode("b", 2)
	want := []string{"a", "b", "c", "d"}
	for _, w := range want {
		n, _, ok := q.PopNode()
		if !ok || n != w {
			t.Fatalf("PopNode() = %q, %v; want %q", n, ok, w)
		}
	}
	if _, _, ok := q.PopNode(); ok {
		t.Error("PopNode on empty queue returned ok")
	}
}

func TestNodeQueueRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	var q NodeQueue[int]
	var bounds []float64
	for i := 0; i < 500; i++ {
		b := rng.Float64()
		bounds = append(bounds, b)
		q.PushNode(i, b)
	}
	sort.Float64s(bounds)
	for i, want := range bounds {
		_, b, ok := q.PopNode()
		if !ok {
			t.Fatalf("queue empty after %d pops, want 500", i)
		}
		if b != want {
			t.Fatalf("pop %d: bound = %g, want %g", i, b, want)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len() = %d after draining", q.Len())
	}
}

func TestNodeQueueInterleaved(t *testing.T) {
	var q NodeQueue[int]
	q.PushNode(1, 10)
	q.PushNode(2, 1)
	if n, _, _ := q.PopNode(); n != 2 {
		t.Fatalf("got %d, want 2", n)
	}
	q.PushNode(3, 5)
	q.PushNode(4, 20)
	if n, _, _ := q.PopNode(); n != 3 {
		t.Fatalf("got %d, want 3", n)
	}
	if n, _, _ := q.PopNode(); n != 1 {
		t.Fatalf("got %d, want 1", n)
	}
	if n, _, _ := q.PopNode(); n != 4 {
		t.Fatalf("got %d, want 4", n)
	}
}
