package histogram

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"mvptree/internal/metric"
)

func TestAddAndBuckets(t *testing.T) {
	h := New(0.5)
	for _, v := range []float64{0, 0.49, 0.5, 0.99, 1.7, -0.2} {
		h.Add(v)
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
	// Buckets: [0,0.5): {0, 0.49, -0.2}; [0.5,1): {0.5, 0.99}; [1.5,2): {1.7}
	want := []int64{3, 2, 0, 1}
	if len(h.Counts) != len(want) {
		t.Fatalf("Counts = %v", h.Counts)
	}
	for i, c := range want {
		if h.Counts[i] != c {
			t.Errorf("Counts[%d] = %d, want %d", i, h.Counts[i], c)
		}
	}
	if h.Max() != 1.7 {
		t.Errorf("Max = %g", h.Max())
	}
}

func TestMeanAndQuantile(t *testing.T) {
	h := New(1)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if m := h.Mean(); m != 50.5 {
		t.Errorf("Mean = %g, want 50.5", m)
	}
	if q := h.Quantile(0.5); q < 50 || q > 52 {
		t.Errorf("median ≈ %g, want ≈ 51", q)
	}
	if q := h.Quantile(1.0); q < 100 {
		t.Errorf("Quantile(1) = %g, want ≥ 100", q)
	}
	if q := h.Quantile(0); q <= 0 {
		t.Errorf("Quantile(0) = %g, want right edge of first nonempty bucket", q)
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := New(1)
	if h.Total() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Error("empty histogram misbehaves")
	}
	if peaks := h.Peaks(3, 0.1); peaks != nil {
		t.Errorf("empty Peaks = %v", peaks)
	}
}

// TestOverflowTally: NaN, +Inf and a value whose bucket index no int
// holds have no bucket. They go to the overflow tally, stay out of Counts,
// Mean and Max, rank above every bucket in Quantile and show in WriteTo's
// summary; none of them may panic, and a pairwise histogram over a metric
// that overflows to +Inf takes them too.
func TestOverflowTally(t *testing.T) {
	h := New(0.01)
	for _, v := range []float64{1, 2, math.Inf(1), math.NaN(), 1e30} {
		h.Add(v)
	}
	var inBuckets int64
	for _, c := range h.Counts {
		inBuckets += c
	}
	if h.Total() != 5 || h.Overflow() != 3 || inBuckets != 2 {
		t.Fatalf("Total %d, Overflow %d, in buckets %d; want 5, 3, 2", h.Total(), h.Overflow(), inBuckets)
	}
	if h.Mean() != 1.5 || h.Max() != 2 {
		t.Errorf("Mean %g, Max %g; want 1.5, 2", h.Mean(), h.Max())
	}
	if q := h.Quantile(0.4); math.IsInf(q, 0) || q < 2 {
		t.Errorf("Quantile(0.4) = %g, want the bucket edge above 2", q)
	}
	if q := h.Quantile(0.5); !math.IsInf(q, 1) {
		t.Errorf("Quantile(0.5) = %g, want +Inf", q)
	}
	var sb strings.Builder
	if _, err := h.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "overflow=3") {
		t.Errorf("WriteTo does not report the overflow:\n%s", sb.String())
	}

	p := Pairwise([][]float64{{0, 0}, {1e200, 1e200}}, metric.L2, 0.01)
	if p.Total() != 1 || p.Overflow() != 1 || !math.IsInf(p.Quantile(1), 1) {
		t.Errorf("Pairwise over an overflowing L2: Total %d, Overflow %d, Quantile(1) %g", p.Total(), p.Overflow(), p.Quantile(1))
	}
}

func TestInvalidBucketWidthPanics(t *testing.T) {
	for _, w := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%g) did not panic", w)
				}
			}()
			New(w)
		}()
	}
}

func TestPeaksUnimodal(t *testing.T) {
	h := New(1)
	rng := rand.New(rand.NewPCG(101, 1))
	for i := 0; i < 10000; i++ {
		// Roughly normal around 50 via sum of uniforms.
		v := 0.0
		for j := 0; j < 12; j++ {
			v += rng.Float64()
		}
		h.Add(v/12*20 + 40)
	}
	peaks := h.Peaks(3, 0.1)
	if len(peaks) != 1 {
		t.Errorf("unimodal data produced peaks %v", peaks)
	}
}

func TestPeaksBimodal(t *testing.T) {
	h := New(1)
	rng := rand.New(rand.NewPCG(102, 1))
	for i := 0; i < 10000; i++ {
		center := 20.0
		if i%2 == 0 {
			center = 80
		}
		h.Add(center + rng.Float64()*10 - 5)
	}
	peaks := h.Peaks(3, 0.1)
	if len(peaks) != 2 {
		t.Errorf("bimodal data produced peaks %v", peaks)
	}
}

func TestPairwiseCountsAllPairs(t *testing.T) {
	items := [][]float64{{0}, {1}, {2}, {3}, {4}}
	h := Pairwise(items, metric.L2, 1)
	if h.Total() != 10 { // 5·4/2
		t.Errorf("Total = %d, want 10", h.Total())
	}
	// Distances: four 1s, three 2s, two 3s, one 4. Bucket b holds
	// values in [b, b+1): distance d lands in bucket d exactly.
	want := map[int]int64{1: 4, 2: 3, 3: 2, 4: 1}
	for b, c := range want {
		if h.Counts[b] != c {
			t.Errorf("Counts[%d] = %d, want %d", b, h.Counts[b], c)
		}
	}
}

func TestPairwiseSampled(t *testing.T) {
	rng := rand.New(rand.NewPCG(103, 1))
	items := [][]float64{{0}, {10}}
	h := PairwiseSampled(rng, items, metric.L2, 1, 500)
	if h.Total() != 500 {
		t.Errorf("Total = %d, want 500", h.Total())
	}
	if h.Counts[10] != 500 {
		t.Errorf("all sampled pairs have distance 10; Counts[10] = %d", h.Counts[10])
	}
	if small := PairwiseSampled(rng, items[:1], metric.L2, 1, 100); small.Total() != 0 {
		t.Errorf("single-item sampling recorded %d pairs", small.Total())
	}
}

func TestSmoothedPreservesMass(t *testing.T) {
	h := New(1)
	for _, v := range []float64{1, 1, 2, 5, 5, 5} {
		h.Add(v)
	}
	s := h.Smoothed(1) // window 1: identity
	for i, c := range h.Counts {
		if s[i] != float64(c) {
			t.Errorf("Smoothed(1)[%d] = %g, want %d", i, s[i], c)
		}
	}
}

func TestWriteTo(t *testing.T) {
	h := New(0.5)
	h.Add(0.2)
	h.Add(0.7)
	var sb strings.Builder
	if _, err := h.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "0.0000\t1") || !strings.Contains(out, "0.5000\t1") {
		t.Errorf("WriteTo output:\n%s", out)
	}
	if !strings.Contains(out, "total=2") {
		t.Errorf("missing summary line:\n%s", out)
	}
}
