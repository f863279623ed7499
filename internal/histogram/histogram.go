// Package histogram computes pairwise-distance histograms, the analysis
// tool behind Figures 4–7 of the paper. The distance distribution of a
// dataset determines how well any distance-based index can prune, so the
// paper presents one histogram per workload; this package regenerates
// them and also derives "meaningful tolerance factors" (query radii)
// from distribution quantiles, as §5.1.B suggests.
package histogram

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strings"

	"mvptree/internal/metric"
)

// Histogram is a fixed-bucket-width histogram over [0, ∞). Values are
// assigned to bucket ⌊v / BucketWidth⌋; the bucket slice grows on demand.
// A value with no bucket — NaN, +Inf (a metric whose arithmetic
// overflowed) or one whose bucket index does not fit an int — is counted
// in an overflow tally instead: it is in Total but not in Counts, Mean or
// Max.
type Histogram struct {
	BucketWidth float64
	Counts      []int64
	total       int64
	overflow    int64
	sum         float64
	max         float64
}

// New returns an empty histogram with the given bucket width, which must
// be positive.
func New(bucketWidth float64) *Histogram {
	if bucketWidth <= 0 || math.IsNaN(bucketWidth) || math.IsInf(bucketWidth, 0) {
		panic("histogram: bucket width must be positive and finite")
	}
	return &Histogram{BucketWidth: bucketWidth}
}

// Add records one value. Negative values are clamped to bucket 0 (they
// cannot occur for metric distances); a value with no bucket goes to the
// overflow tally.
func (h *Histogram) Add(v float64) {
	h.total++
	f := v / h.BucketWidth
	if math.IsNaN(f) || f >= math.MaxInt {
		h.overflow++
		return
	}
	b := 0
	if f > 0 {
		b = int(f)
	}
	for b >= len(h.Counts) {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[b]++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Total reports the number of recorded values, overflowed ones included.
func (h *Histogram) Total() int64 { return h.total }

// Overflow reports the number of recorded values that have no bucket.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Mean reports the mean of the values in buckets (0 when there are none).
func (h *Histogram) Mean() float64 {
	if h.total == h.overflow {
		return 0
	}
	return h.sum / float64(h.total-h.overflow)
}

// Max reports the largest value in a bucket.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an upper bound of the q-quantile (0 ≤ q ≤ 1) of the
// recorded values, at bucket resolution: the right edge of the first
// bucket whose cumulative count reaches q·Total, or +Inf when the
// quantile falls among the overflowed values, which rank above every
// bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b, c := range h.Counts {
		cum += c
		if cum >= target {
			return float64(b+1) * h.BucketWidth
		}
	}
	if h.overflow > 0 {
		return math.Inf(1)
	}
	return float64(len(h.Counts)) * h.BucketWidth
}

// Smoothed returns the counts convolved with a centered moving-average
// window (window forced odd, ≥1), as floats.
func (h *Histogram) Smoothed(window int) []float64 {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	out := make([]float64, len(h.Counts))
	for i := range out {
		var s float64
		var n int
		for j := i - half; j <= i+half; j++ {
			if j >= 0 && j < len(h.Counts) {
				s += float64(h.Counts[j])
				n++
			}
		}
		out[i] = s / float64(n)
	}
	return out
}

// Peaks returns the bucket indices of local maxima of the smoothed
// histogram whose height is at least minFrac of the global smoothed
// maximum, separated by a dip to below half their height. It is how the
// tests assert the qualitative shapes of Figures 4–7 (unimodal for
// uniform vectors, bimodal for images).
func (h *Histogram) Peaks(window int, minFrac float64) []int {
	s := h.Smoothed(window)
	if len(s) == 0 {
		return nil
	}
	globalMax := 0.0
	for _, v := range s {
		if v > globalMax {
			globalMax = v
		}
	}
	if globalMax == 0 {
		return nil
	}
	threshold := globalMax * minFrac
	// Candidate local maxima above the height threshold.
	var cands []int
	for i := range s {
		if s[i] < threshold {
			continue
		}
		if (i == 0 || s[i] >= s[i-1]) && (i == len(s)-1 || s[i] >= s[i+1]) {
			cands = append(cands, i)
		}
	}
	// Merge candidates that belong to the same hump: two maxima are
	// distinct peaks only if the valley between them drops below half
	// of the lower one.
	var peaks []int
	for _, c := range cands {
		if len(peaks) == 0 {
			peaks = append(peaks, c)
			continue
		}
		last := peaks[len(peaks)-1]
		valley := s[last]
		for j := last; j <= c; j++ {
			if s[j] < valley {
				valley = s[j]
			}
		}
		lower := min(s[last], s[c])
		if valley < lower/2 {
			peaks = append(peaks, c)
		} else if s[c] > s[last] {
			peaks[len(peaks)-1] = c
		}
	}
	return peaks
}

// Pairwise records the distances of all unordered pairs of items —
// n·(n−1)/2 distance computations, as the paper does for its 1151 images
// ("(1150*1151)/2 = 658795 different pairs").
func Pairwise[T any](items []T, fn metric.DistanceFunc[T], bucketWidth float64) *Histogram {
	h := New(bucketWidth)
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			h.Add(fn(items[i], items[j]))
		}
	}
	return h
}

// PairwiseSampled records the distances of pairs sampled uniformly with
// replacement (skipping i == j), for datasets whose full pair set is too
// large (50,000 vectors → 1.25 billion pairs).
func PairwiseSampled[T any](rng *rand.Rand, items []T, fn metric.DistanceFunc[T], bucketWidth float64, pairs int) *Histogram {
	h := New(bucketWidth)
	if len(items) < 2 {
		return h
	}
	for k := 0; k < pairs; k++ {
		i := rng.IntN(len(items))
		j := rng.IntN(len(items))
		if i == j {
			k--
			continue
		}
		h.Add(fn(items[i], items[j]))
	}
	return h
}

// WriteTo prints the histogram as "bucket_start<TAB>count" rows followed
// by a summary line, the textual form of the paper's Figures 4–7. The
// summary names the overflow tally when it is not empty.
func (h *Histogram) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	for b, c := range h.Counts {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%.4f\t%d\n", float64(b)*h.BucketWidth, c)
	}
	fmt.Fprintf(&sb, "# total=%d mean=%.4f max=%.4f", h.total, h.Mean(), h.max)
	if h.overflow > 0 {
		fmt.Fprintf(&sb, " overflow=%d", h.overflow)
	}
	sb.WriteByte('\n')
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// WriteCSV prints the histogram as "bucket_start,count" CSV rows.
func (h *Histogram) WriteCSV(w io.Writer) (int64, error) {
	var sb strings.Builder
	sb.WriteString("bucket,count\n")
	for b, c := range h.Counts {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%g,%d\n", float64(b)*h.BucketWidth, c)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}
