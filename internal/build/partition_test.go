package build

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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
	keys := []Key{{5, 0, 0}, {1, 1, 0}, {4, 2, 0}, {2, 3, 0}, {3, 4, 0}, {9, 5, 0}, {7, 6, 0}}
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
	ties := []Key{{1, 4, 0}, {1, 0, 0}, {2, 9, 0}, {1, 3, 0}, {1, 1, 0}, {1, 2, 0}, {0, 7, 0}}
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

// referenceCut is splitter.cut as it was written before its sweeps were
// blocked: each stops at every key. The arrangement a split leaves is what
// the next draw and the next split read, so it pins every tree, and
// SplitEqual must leave this one.
func referenceCut(s splitter, a, b, limit int, byID bool) {
	keys := s.keys
	for s.splits(a, b) {
		if b-a <= insertionMax {
			for i := a + 1; i < b; i++ {
				for j := i; j > a && keys[j].less(keys[j-1]); j-- {
					keys[j], keys[j-1] = keys[j-1], keys[j]
				}
			}
			return
		}
		if limit == 0 {
			slices.SortFunc(keys[a:b], compareKeys)
			return
		}
		limit--
		p, q, r := keys[a].D, keys[a+(b-a)/2].D, keys[b-1].D
		p = max(min(p, q), min(max(p, q), r))
		lt := a
		for j := b - 1; ; lt, j = lt+1, j-1 {
			for lt <= j && keys[lt].D < p {
				lt++
			}
			for lt <= j && !(keys[j].D < p) {
				j--
			}
			if lt >= j {
				break
			}
			keys[lt], keys[j] = keys[j], keys[lt]
		}
		gt := lt
		for j := b - 1; ; gt, j = gt+1, j-1 {
			for gt <= j && !(keys[gt].D > p) {
				gt++
			}
			for gt <= j && keys[j].D > p {
				j--
			}
			if gt >= j {
				break
			}
			keys[gt], keys[j] = keys[j], keys[gt]
		}
		if !byID && s.splits(lt, gt) {
			for i := lt; i < gt; i++ {
				keys[i].D = float64(keys[i].ID)
			}
			referenceCut(s, lt, gt, limit, true)
			for i := lt; i < gt; i++ {
				keys[i].D = p
			}
		}
		referenceCut(s, a, lt, limit, byID)
		a = gt
	}
}

// checkReference holds SplitEqual to referenceCut: the same keys in the
// same slots, bit for bit, and the same cutoffs.
func checkReference(t *testing.T, name string, keys []Key, m int) {
	t.Helper()
	want, wantCuts := slices.Clone(keys), make([]float64, m-1)
	if n := len(want); n > 0 {
		referenceCut(splitter{want, m}, 0, n, 4*bits.Len(uint(n)), false)
		bound(want, wantCuts)
	}
	got, gotCuts := slices.Clone(keys), make([]float64, m-1)
	SplitEqual(got, gotCuts)
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range got {
		if !same(got[i].D, want[i].D) || got[i].ID != want[i].ID || got[i].Pos != want[i].Pos {
			t.Fatalf("%s n=%d m=%d: slot %d holds %v, the two-ended sweep leaves %v", name, len(keys), m, i, got[i], want[i])
		}
	}
	for g := range gotCuts {
		if !same(gotCuts[g], wantCuts[g]) {
			t.Fatalf("%s n=%d m=%d: cutoff %d = %g, the two-ended sweep gives %g", name, len(keys), m, g, gotCuts[g], wantCuts[g])
		}
	}
}

// TestSplitEqualMakesTheTwoEndedSweepsSwaps holds the arrangement, not
// only the groups, to the reference on the inputs the builders feed the
// split at the sizes they feed it, and on ties, infinities and NaN.
func TestSplitEqualMakesTheTwoEndedSweepsSwaps(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 4))
	values := []float64{0, 1, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	shapes := []struct {
		name string
		d    func() float64
	}{
		{"continuous", rng.Float64},
		{"twelve-valued", func() float64 { return float64(rng.IntN(12)) }},
		{"two-valued", func() float64 { return float64(rng.IntN(2)) }},
		{"specials", func() float64 { return values[rng.IntN(len(values))] }},
		{"rare-nan", func() float64 {
			if rng.IntN(100) == 0 {
				return math.NaN()
			}
			return rng.Float64()
		}},
	}
	for _, shape := range shapes {
		for _, n := range []int{1, 2, 13, 100, 129, 257, 600, 5500} {
			keys := make([]Key, n)
			for i, j := range rng.Perm(n) {
				keys[i] = Key{D: shape.d(), ID: int32(j), Pos: int32(i)}
			}
			for m := 2; m <= min(5, n); m++ {
				checkReference(t, shape.name, keys, m)
			}
		}
	}
}

// fuzzDistance maps a fuzzer byte to a distance: most are themselves,
// so ties are common, and the top three are NaN and the infinities.
func fuzzDistance(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	}
	return float64(b)
}

// FuzzSplitEqual is the same contract over keys read off the fuzzer's
// bytes: two bytes a key, the first its distance (fuzzDistance), ids a
// permutation chosen by the second. Every input is also held to the
// reference sweep's arrangement and cutoffs; an input with NaN only to
// that, since no rank under (D, ID) places a NaN.
func FuzzSplitEqual(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{3, 0, 3, 1, 3, 2, 3, 3}, uint8(4))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2))
	f.Add(slices.Repeat([]byte{7, 1, 7, 0, 2, 9}, 40), uint8(3))
	f.Add(slices.Repeat([]byte{255, 1, 3, 0, 254, 2, 9, 7}, 30), uint8(2))
	f.Add(slices.Repeat([]byte{253, 4, 254, 3, 1, 2, 200, 9, 0, 1}, 50), uint8(4))
	f.Add(append(slices.Repeat([]byte{40, 1, 12, 0}, 100), 255, 0, 255, 1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, groups uint8) {
		n := len(data) / 2
		keys, nan := make([]Key, n), false
		for i := range keys {
			keys[i] = Key{D: fuzzDistance(data[2*i]), ID: int32(i)}
			nan = nan || math.IsNaN(keys[i].D)
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
		checkReference(t, "fuzz", keys, m)
		if !nan {
			checkSplit(t, "fuzz", keys, m)
		}
	})
}

// BenchmarkSplitEqual cuts keys in three at the sizes the benchmark's
// 50 000-item trees cut them: the root's 50 000, a depth-1 shell's 16 700,
// a depth-1 node's 5 500 and a depth-2 node's 600; continuous distances,
// and the dozen values of an edit distance. Each size cycles through
// inputs of 200 000 keys in all, as a build never splits one twice: a
// small input split over and over teaches the branch predictor its
// pattern, and a sweep that stops at each key then measured 7–10 ns a key
// at 600 keys where it takes 25–30 on keys it has not seen (two vCPUs of
// an Intel Xeon, go1.24).
func BenchmarkSplitEqual(b *testing.B) {
	rng := rand.New(rand.NewPCG(23, 2))
	for _, shape := range []struct {
		name string
		d    func() float64
	}{
		{"continuous", rng.Float64},
		{"twelve-valued", func() float64 { return float64(rng.IntN(12)) }},
	} {
		for _, n := range []int{50000, 16700, 5500, 600} {
			inputs := make([][]Key, max(1, 200000/n))
			for s := range inputs {
				inputs[s] = make([]Key, n)
				for i, id := range rng.Perm(n) {
					inputs[s][i] = Key{D: shape.d(), ID: int32(id)}
				}
			}
			work, cutoffs := make([]Key, n), make([]float64, 2)
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				for i := 0; b.Loop(); i++ {
					copy(work, inputs[i%len(inputs)])
					SplitEqual(work, cutoffs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
			})
		}
	}
}
