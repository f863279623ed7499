package build

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// checkSplit holds SplitEqual to a full sort under (D, ID): group g is
// the set of the oracle's ranks GroupBounds(n, m, g), each cutoff is the
// midpoint between the oracle's neighbours across the boundary, the
// last slot holds the maximum, and nothing was allocated.
func checkSplit(t *testing.T, name string, keys []Key, m int) {
	t.Helper()
	n := len(keys)
	oracle := slices.Clone(keys)
	slices.SortFunc(oracle, compareKeys)
	work, cutoffs := slices.Clone(keys), make([]float64, m-1)
	if allocs := testing.AllocsPerRun(1, func() {
		copy(work, keys)
		SplitEqual(work, cutoffs)
	}); allocs != 0 {
		t.Errorf("%s n=%d m=%d: %v allocations", name, n, m, allocs)
	}
	if n == 0 {
		return
	}
	if work[n-1] != oracle[n-1] {
		t.Errorf("%s n=%d m=%d: last slot holds %v, the maximum is %v", name, n, m, work[n-1], oracle[n-1])
	}
	for g := 0; g < m; g++ {
		lo, hi := GroupBounds(n, m, g)
		group := slices.Clone(work[lo:hi])
		slices.SortFunc(group, compareKeys)
		if !slices.Equal(group, oracle[lo:hi]) {
			t.Fatalf("%s n=%d m=%d: group %d holds %v, ranks [%d, %d) are %v", name, n, m, g, group, lo, hi, oracle[lo:hi])
		}
		if g < m-1 {
			if want := (oracle[hi-1].D + oracle[hi].D) / 2; cutoffs[g] != want {
				t.Errorf("%s n=%d m=%d: cutoff %d = %g, want %g", name, n, m, g, cutoffs[g], want)
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
	// Seven ranks in three groups: sizes 3, 2, 2, the larger first.
	for g, want := range [][2]int{{0, 3}, {3, 5}, {5, 7}} {
		if lo, hi := GroupBounds(7, 3, g); lo != want[0] || hi != want[1] {
			t.Fatalf("group %d = [%d,%d), want %v", g, lo, hi, want)
		}
	}
	// Equal distances go to groups by id, whatever order they came in.
	ties := []Key{{1, 4}, {1, 0}, {2, 9}, {1, 3}, {1, 1}, {1, 2}, {0, 7}}
	checkSplit(t, "ties", ties, 3)
	SplitEqual(ties, cut)
	if want := []float64{1, 1}; !slices.Equal(cut, want) {
		t.Fatalf("cutoffs %v, want %v", cut, want)
	}
	SplitEqual(keys[:1], nil) // one group: no cutoffs
	SplitEqual(nil, nil)      // and none of nothing
}

// TestSplitEqualIsRankUnderDistanceThenID is the partition's contract on
// every shape of input the builders feed it and the ones a selection
// gets wrong: continuous keys, a handful of distinct values (edit
// distance), one value, ascending, descending, an organ pipe, infinities.
func TestSplitEqualIsRankUnderDistanceThenID(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	shapes := []struct {
		name string
		d    func(i, n int) float64
	}{
		{"continuous", func(int, int) float64 { return rng.Float64() }},
		{"twelve-valued", func(int, int) float64 { return float64(rng.IntN(12)) }},
		{"four-valued", func(int, int) float64 { return float64(rng.IntN(4)) }},
		{"two-valued", func(int, int) float64 { return float64(rng.IntN(2)) }},
		{"all-equal", func(int, int) float64 { return 3 }},
		{"sorted", func(i, _ int) float64 { return float64(i) }},
		{"sorted-with-ties", func(i, _ int) float64 { return float64(i / 3) }},
		{"reversed", func(i, n int) float64 { return float64(n - i) }},
		{"reversed-with-ties", func(i, n int) float64 { return float64((n - i) / 2) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-i)) }},
		{"with-inf", func(int, int) float64 { return []float64{0, 1, math.Inf(1)}[rng.IntN(3)] }},
	}
	for _, shape := range shapes {
		for _, n := range []int{0, 1, 2, 3, 7, 12, 13, 14, 49, 50, 200, 1000, 20000} {
			keys := make([]Key, n)
			for i := range keys {
				keys[i] = Key{D: shape.d(i, n), ID: int32(i)}
			}
			for _, shuffleIDs := range []bool{false, true} {
				if shuffleIDs { // ids in no relation to position
					for i, j := range rng.Perm(n) {
						keys[i].ID = int32(j)
					}
				}
				for _, m := range []int{1, 2, 3, 4, 7, n} {
					if m >= 1 && (m <= n || n == 0 && m == 1) {
						checkSplit(t, shape.name, keys, m)
					}
				}
			}
		}
	}
}

// TestSplitEqualSortsWhenPivotsRunOut drives the guard a test cannot
// reach through pivots: a range that has used up its rounds is sorted,
// and the groups are the same sets.
func TestSplitEqualSortsWhenPivotsRunOut(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 3))
	for _, values := range []int{4, 1 << 30} {
		keys := make([]Key, 1000)
		for i := range keys {
			keys[i] = Key{D: float64(rng.IntN(values)), ID: int32(i)}
		}
		oracle := slices.Clone(keys)
		slices.SortFunc(oracle, compareKeys)
		for limit := 0; limit < 4; limit++ {
			work := slices.Clone(keys)
			splitter{work, 3}.cut(0, len(work), limit, false)
			for g := 0; g < 3; g++ {
				lo, hi := GroupBounds(len(work), 3, g)
				slices.SortFunc(work[lo:hi], compareKeys)
			}
			if !slices.Equal(work, oracle) {
				t.Errorf("%d values, %d rounds: the groups are not the ranks' keys", values, limit)
			}
		}
	}
}

// FuzzSplitEqual is the same contract over keys read off the fuzzer's
// bytes: two bytes a key, the first its distance (so ties are common),
// ids a permutation chosen by the second.
func FuzzSplitEqual(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{3, 0, 3, 1, 3, 2, 3, 3}, uint8(4))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2))
	f.Add(slices.Repeat([]byte{7, 1, 7, 0, 2, 9}, 40), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, groups uint8) {
		n := len(data) / 2
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key{D: float64(data[2*i]), ID: int32(i)}
		}
		// The second bytes order the ids: a stable sort by them is a
		// permutation of 0..n-1.
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(data[2*a+1], data[2*b+1]) })
		for rank, i := range order {
			keys[i].ID = int32(rank)
		}
		m := 1
		if n > 0 {
			m = 1 + int(groups)%n
		}
		checkSplit(t, "fuzz", keys, m)
	})
}

// BenchmarkSplitEqual cuts 50 000 keys in three, as the root of the
// benchmark's trees does: continuous distances, and the dozen values of
// an edit distance.
func BenchmarkSplitEqual(b *testing.B) {
	rng := rand.New(rand.NewPCG(23, 2))
	for _, shape := range []struct {
		name string
		d    func() float64
	}{
		{"continuous", rng.Float64},
		{"twelve-valued", func() float64 { return float64(rng.IntN(12)) }},
	} {
		keys := make([]Key, 50000)
		for i := range keys {
			keys[i] = Key{D: shape.d(), ID: int32(i)}
		}
		work, cutoffs := make([]Key, len(keys)), make([]float64, 2)
		b.Run(shape.name, func(b *testing.B) {
			for b.Loop() {
				copy(work, keys)
				SplitEqual(work, cutoffs)
			}
		})
	}
}
