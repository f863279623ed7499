package metric

import "math"

// L1 returns the Manhattan (city block) distance between two vectors.
// It panics if the vectors have different lengths.
func L1(a, b []float64) float64 {
	checkLen(a, b)
	b = b[:len(a)]
	var s float64
	// Unrolled four-wide in the element-at-a-time accumulation order, so
	// the result is bit-for-bit what the plain loop computes.
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += math.Abs(a[i] - b[i])
		s += math.Abs(a[i+1] - b[i+1])
		s += math.Abs(a[i+2] - b[i+2])
		s += math.Abs(a[i+3] - b[i+3])
	}
	for ; i < len(a); i++ {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// L2 returns the Euclidean distance between two vectors.
// It panics if the vectors have different lengths.
func L2(a, b []float64) float64 {
	checkLen(a, b)
	b = b[:len(a)]
	var s float64
	// Unrolled four-wide in the element-at-a-time accumulation order, so
	// the result is bit-for-bit what the plain loop computes.
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		s += d0 * d0
		d1 := a[i+1] - b[i+1]
		s += d1 * d1
		d2 := a[i+2] - b[i+2]
		s += d2 * d2
		d3 := a[i+3] - b[i+3]
		s += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// L2Row is L2 from one point to many under the RowDistanceFunc
// contract: out[i] = L2(items[ids[i]], p). It sums four items at once,
// each in L2's order, so every distance is L2's bit for bit; what the
// four independent sums buy is overlap — of their additions, which in
// one sum wait on each other, and of their cache misses, on a row whose
// items lie in no particular memory order (a node's row below the
// root). It panics, as L2 does, on a vector of another length than p.
func L2Row(p []float64, items [][]float64, ids []int32, out []float64) {
	out = out[:len(ids)]
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		a, b, c, d := items[ids[i]], items[ids[i+1]], items[ids[i+2]], items[ids[i+3]]
		if len(a) != len(p) || len(b) != len(p) || len(c) != len(p) || len(d) != len(p) {
			break // L2 panics on the pair
		}
		var sa, sb, sc, sd float64
		for k, x := range p {
			da, db, dc, dd := a[k]-x, b[k]-x, c[k]-x, d[k]-x
			sa += da * da
			sb += db * db
			sc += dc * dc
			sd += dd * dd
		}
		out[i], out[i+1], out[i+2], out[i+3] = math.Sqrt(sa), math.Sqrt(sb), math.Sqrt(sc), math.Sqrt(sd)
	}
	for ; i < len(ids); i++ {
		out[i] = L2(items[ids[i]], p)
	}
}

// LInf returns the Chebyshev (maximum) distance between two vectors.
// It panics if the vectors have different lengths.
func LInf(a, b []float64) float64 {
	checkLen(a, b)
	var s float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > s {
			s = d
		}
	}
	return s
}

// Lp returns the Minkowski distance of order p as a DistanceFunc.
// p must be >= 1 for the result to be a metric; Lp panics otherwise
// (a NaN p included).
// Lp(1), Lp(2) and Lp(+Inf) return the specialized L1, L2 and LInf
// kernels, which skip the generic math.Pow loop and carry registered
// early-abandoning fast paths.
func Lp(p float64) DistanceFunc[[]float64] {
	checkLpArgs("Lp", p, nil)
	if math.IsInf(p, 1) {
		return LInf
	}
	switch p {
	case 1:
		return L1
	case 2:
		return L2
	}
	return func(a, b []float64) float64 {
		checkLen(a, b)
		var s float64
		for i := range a {
			s += math.Pow(math.Abs(a[i]-b[i]), p)
		}
		return math.Pow(s, 1/p)
	}
}

// WeightedLp returns a weighted Minkowski distance of order p, where the
// absolute difference at dimension i is multiplied by w[i] before
// accumulation. All weights must be positive and finite and p >= 1, or
// WeightedLp panics (NaN is none of these): an infinite weight would
// make d(x, x) = 0·Inf = NaN. The paper (§5.1.B) describes the
// weighted-L1 variant for emphasizing image regions; the weighted form
// is a metric because it is the Lp distance after a fixed per-axis
// rescaling.
func WeightedLp(p float64, w []float64) DistanceFunc[[]float64] {
	checkLpArgs("WeightedLp", p, w)
	weights := make([]float64, len(w))
	copy(weights, w)
	inf := math.IsInf(p, 1)
	return func(a, b []float64) float64 {
		checkLen(a, b)
		if len(a) != len(weights) {
			panic("metric: vector length does not match weight length")
		}
		var s float64
		for i := range a {
			d := math.Abs(a[i]-b[i]) * weights[i]
			if inf {
				if d > s {
					s = d
				}
			} else {
				s += math.Pow(d, p)
			}
		}
		if inf {
			return s
		}
		return math.Pow(s, 1/p)
	}
}

// Scaled returns fn with every distance multiplied by factor. factor must
// be positive or Scaled panics. Scaling a metric by a positive constant
// preserves all metric axioms; the paper normalizes image distances by
// 1/10000 (L1) and 1/100 (L2) this way.
func Scaled[T any](fn DistanceFunc[T], factor float64) DistanceFunc[T] {
	if factor <= 0 || math.IsInf(factor, 0) || math.IsNaN(factor) {
		panic("metric: Scaled requires a positive finite factor")
	}
	return func(a, b T) float64 { return fn(a, b) * factor }
}

// checkLpArgs panics, naming the constructor, unless p >= 1 and every
// weight is positive and finite. The comparisons are written so that a
// NaN fails them.
func checkLpArgs(name string, p float64, w []float64) {
	if !(p >= 1) {
		panic("metric: " + name + " requires p >= 1")
	}
	for _, x := range w {
		if !(x > 0) || math.IsInf(x, 1) {
			panic("metric: " + name + " requires positive finite weights")
		}
	}
}

func checkLen(a, b []float64) {
	if len(a) != len(b) {
		panic("metric: vectors have different lengths")
	}
}

// Canberra returns the Canberra distance: the sum over dimensions of
// |aᵢ − bᵢ| / (|aᵢ| + |bᵢ|), with 0/0 terms counting zero. It is a
// metric, bounded by the dimensionality, and heavily weights
// differences near zero — useful when small coordinates carry meaning.
// It panics if the vectors have different lengths.
func Canberra(a, b []float64) float64 {
	checkLen(a, b)
	var s float64
	for i := range a {
		num := math.Abs(a[i] - b[i])
		if num == 0 {
			continue
		}
		s += num / (math.Abs(a[i]) + math.Abs(b[i]))
	}
	return s
}
