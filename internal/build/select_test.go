package build

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
)

// selectFixture is a line of points with two far outliers: the
// outliers see every other point at nearly one distance, points inside
// the line see a wide range, so spread has something to choose between.
func selectFixture(n int) (items []float64, perm []int32) {
	items = make([]float64, n)
	perm = make([]int32, n)
	for i := range items {
		items[i] = float64(i)
		perm[i] = int32(n - 1 - i) // not the identity: slots are not ids
	}
	items[0], items[1] = -1e6, 1e6
	return items, perm
}

func TestSpreadSample(t *testing.T) {
	for _, c := range []struct{ size, want int }{
		{0, 0}, {2, 0}, {255, 0}, {256, 8}, {1000, 31}, {2048, 64}, {50000, 64},
	} {
		if got := SpreadSample(c.size); got != c.want {
			t.Errorf("SpreadSample(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

// TestSelectVantageFallsBackToOneDraw: with nothing to compare the
// result is rng's first IntN, exactly what construction drew before
// selection existed, and no distance is computed.
func TestSelectVantageFallsBackToOneDraw(t *testing.T) {
	items, perm := selectFixture(300)
	for _, c := range []struct {
		name               string
		perm               []int32
		candidates, sample int
	}{
		{"below the default floor", perm[:255], SpreadCandidates, SpreadSample(255)},
		{"sample of one", perm, SpreadCandidates, 1},
		{"one candidate", perm, 1, 20},
		{"two points", perm[:2], SpreadCandidates, MaxSample},
		{"one point", perm[:1], SpreadCandidates, MaxSample},
	} {
		ctr := metric.NewCounter(absDiff)
		b := Start(ctr, Options{})
		src := NewRNG(3, 9)
		got := b.SelectVantage(items, c.perm, src.Rand(), c.candidates, c.sample)
		if want := src.Rand().IntN(len(c.perm)); got != want {
			t.Errorf("%s: slot %d, want the single draw %d", c.name, got, want)
		}
		if s := b.Finish(); s.Distances != 0 || s.SelectionDistances != 0 {
			t.Errorf("%s: computed %d distances (%d selecting), want none", c.name, s.Distances, s.SelectionDistances)
		}
	}
}

// TestSelectVantageDeterministicPerPosition: the choice is a function
// of (seed, tree position) alone — the same for every worker count and
// under concurrent selection at sibling positions — and its cost is
// candidates·sample, counted in both Stats fields.
func TestSelectVantageDeterministicPerPosition(t *testing.T) {
	items, perm := selectFixture(4000)
	const positions = 16
	choose := func(workers int, seed uint64) [positions]int {
		ctr := metric.NewCounter(absDiff)
		b := Start(ctr, Options{Workers: workers, Seed: seed})
		root := NewRNG(seed, 9)
		var got [positions]int
		b.Fork(positions, func(i int) {
			got[i] = b.SelectVantage(items, perm, root.Child(i).Rand(), SpreadCandidates, SpreadSample(len(perm)))
		})
		want := int64(positions * SpreadCandidates * MaxSample)
		if s := b.Finish(); s.Distances != want || s.SelectionDistances != want {
			t.Errorf("workers=%d: %d distances, %d selecting, want %d for both", workers, s.Distances, s.SelectionDistances, want)
		}
		return got
	}
	base := choose(1, 5)
	for _, workers := range []int{1, 2, 4} {
		if got := choose(workers, 5); got != base {
			t.Errorf("workers=%d: slots %v, want %v", workers, got, base)
		}
	}
	if other := choose(1, 6); other == base {
		t.Errorf("seeds 5 and 6 chose the same slots %v at every position", base)
	}
	distinct := map[int]bool{}
	for _, slot := range base {
		distinct[slot] = true
		// An outlier is the worst vantage point of the fixture; with 8
		// candidates it wins only if all 8 draws hit the two outliers.
		if id := perm[slot]; id == 0 || id == 1 {
			t.Errorf("chose outlier id %d at slot %d", id, slot)
		}
	}
	if len(distinct) < 2 {
		t.Errorf("every position chose slot %d", base[0])
	}
}

// TestSelectVantageKeepsLargestVariance checks the criterion against a
// direct computation: replaying rng's draws, no candidate has a larger
// variance over the sample than the one returned.
func TestSelectVantageKeepsLargestVariance(t *testing.T) {
	items, perm := selectFixture(1000)
	const candidates, sample = 5, 20
	src := NewRNG(11, 9)
	b := Start(metric.NewCounter(absDiff), Options{})
	got := b.SelectVantage(items, perm, src.Rand(), candidates, sample)

	rng := src.Rand()
	ids := make([]int32, sample)
	for i := range ids {
		ids[i] = perm[rng.IntN(len(perm))]
	}
	variance := func(slot int) float64 {
		var ds []float64
		for _, id := range ids {
			if id != perm[slot] {
				ds = append(ds, absDiff(items[id], items[perm[slot]]))
			}
		}
		var mean, ss float64
		for _, d := range ds {
			mean += d / float64(len(ds))
		}
		for _, d := range ds {
			ss += (d - mean) * (d - mean) / float64(len(ds))
		}
		return ss
	}
	drawn := false
	for range candidates {
		slot := rng.IntN(len(perm))
		drawn = drawn || slot == got
		if variance(slot) > variance(got)*(1+1e-12) {
			t.Errorf("candidate slot %d has variance %g, above the chosen slot %d's %g", slot, variance(slot), got, variance(got))
		}
	}
	if !drawn {
		t.Errorf("chosen slot %d is not one of the candidates drawn", got)
	}
}

func TestSelectVantageAllocatesNothing(t *testing.T) {
	vecs := make([][]float64, 3000)
	perm := make([]int32, len(vecs))
	data := rand.New(rand.NewPCG(1, 2))
	for i := range vecs {
		vecs[i] = []float64{data.Float64(), data.Float64(), data.Float64()}
		perm[i] = int32(i)
	}
	// Workers > 1: MeasureIDs would fan a large batch out through a
	// fork; selection batches never reach that path.
	b := Start(metric.NewCounter(metric.L2), Options{Workers: 4})
	defer b.Finish()
	rng := NewRNG(1, 9).Rand()
	sink := 0
	if avg := testing.AllocsPerRun(50, func() {
		sink += b.SelectVantage(vecs, perm, rng, SpreadCandidates, SpreadSample(len(perm)))
	}); avg != 0 {
		t.Errorf("SelectVantage allocated %v times per call, want 0", avg)
	}
	_ = sink
}
