package build

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// TestSortKeysMatchesStandardLibrary pins sortKeys to the permutation
// construction produced when it sorted an index slice with sort.Slice
// by distance alone — the arrangement among equal distances included —
// and to slices.SortFunc over the packed keys, on inputs that drive
// every branch of the quicksort: short and long, tie-free, tie-heavy
// (few distinct integer distances, like edit distance), constant,
// ascending, descending and a sorted run with a scrambled tail.
func TestSortKeysMatchesStandardLibrary(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1))
	shapes := map[string]func(i, n int) float64{
		"tie-free":   func(int, int) float64 { return rng.Float64() },
		"tie-heavy":  func(int, int) float64 { return float64(rng.IntN(12)) },
		"two-valued": func(int, int) float64 { return float64(rng.IntN(2)) },
		"constant":   func(int, int) float64 { return 3 },
		"ascending":  func(i, _ int) float64 { return float64(i / 3) },
		"descending": func(i, n int) float64 { return float64((n - i) / 2) },
		"sorted-then-noise": func(i, n int) float64 {
			if i < n*9/10 {
				return float64(i)
			}
			return float64(rng.IntN(n))
		},
		"with-inf": func(int, int) float64 { return []float64{0, 1, math.Inf(1)}[rng.IntN(3)] },
	}
	for name, shape := range shapes {
		for _, n := range []int{0, 1, 2, 7, 12, 13, 49, 50, 51, 200, 1000, 20000} {
			d := make([]float64, n)
			keys := make([]Key, n)
			ord := make([]int, n)
			for i := range d {
				d[i] = shape(i, n)
				keys[i] = Key{D: d[i], ID: int32(i)}
				ord[i] = i
			}
			viaFunc := slices.Clone(keys)
			sortKeys(keys)
			sort.Slice(ord, func(a, b int) bool { return d[ord[a]] < d[ord[b]] })
			slices.SortFunc(viaFunc, func(a, b Key) int {
				switch {
				case a.D < b.D:
					return -1
				case b.D < a.D:
					return 1
				}
				return 0
			})
			for i := range keys {
				if int(keys[i].ID) != ord[i] || keys[i] != viaFunc[i] {
					t.Fatalf("%s n=%d: rank %d holds id %d, sort.Slice %d, slices.SortFunc %d",
						name, n, i, keys[i].ID, ord[i], viaFunc[i].ID)
				}
			}
		}
	}
}

func TestSplitEqual(t *testing.T) {
	keys := []Key{{5, 0}, {1, 1}, {4, 2}, {2, 3}, {3, 4}, {9, 5}, {7, 6}}
	cut := make([]float64, 2)
	SplitEqual(keys, cut)
	if want := []float64{3.5, 6}; !slices.Equal(cut, want) {
		t.Fatalf("cutoffs %v, want %v", cut, want)
	}
	var ids []int32
	for _, k := range keys {
		ids = append(ids, k.ID)
	}
	if want := []int32{1, 3, 4, 2, 0, 6, 5}; !slices.Equal(ids, want) {
		t.Fatalf("order %v, want %v", ids, want)
	}
	// Seven ranks in three groups: sizes 3, 2, 2, the larger first.
	for g, want := range [][2]int{{0, 3}, {3, 5}, {5, 7}} {
		if lo, hi := GroupBounds(7, 3, g); lo != want[0] || hi != want[1] {
			t.Fatalf("group %d = [%d,%d), want %v", g, lo, hi, want)
		}
	}
	SplitEqual(keys[:1], nil) // one group: no cutoffs
}
