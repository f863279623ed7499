package heapx

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestKLargestKeepsLargest(t *testing.T) {
	h := NewKLargest[int](3, 3)
	for i, d := range []float64{5, 1, 9, 3, 7, 2, 8} {
		h.Push(i, d)
	}
	got := h.Sorted()
	want := []float64{9, 8, 7}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i, n := range got {
		if n.Dist != want[i] {
			t.Errorf("Sorted()[%d].Dist = %g, want %g", i, n.Dist, want[i])
		}
	}
}

func TestKLargestAccepts(t *testing.T) {
	h := NewKLargest[int](2, 2)
	h.Push(0, 4)
	h.Push(1, 6)
	if h.Accepts(4) {
		t.Error("Accepts(4) with weakest 4; equal must be rejected")
	}
	if !h.Accepts(4.1) {
		t.Error("Accepts(4.1) = false")
	}
	h.Push(2, 10)
	got := h.Sorted()
	if got[0].Dist != 10 || got[1].Dist != 6 {
		t.Errorf("Sorted = %v", got)
	}
}

func TestKLargestPanicsOnNonPositiveK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewKLargest(0) did not panic")
		}
	}()
	NewKLargest[int](0, 0)
}

func TestKLargestMatchesSortQuick(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		h := NewKLargest[int](k, k)
		clean := make([]float64, 0, len(raw))
		for i, d := range raw {
			if d != d || d < 0 {
				continue
			}
			clean = append(clean, d)
			h.Push(i, d)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(clean)))
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
