package metric

import "math"

// BoundedDistanceFunc is the early-abandoning fast path of a
// DistanceFunc. The contract, which every kernel here honours and which
// the index structures rely on for result equivalence, is:
//
//	ret := f(a, b, bound)
//	ret <= bound  ⟹  ret is exactly the value the exact kernel returns
//	ret >  bound  ⟹  the exact kernel's value is also > bound
//
// In other words the caller may trust any comparison of the returned
// value against thresholds ≤ bound, but must not interpret an abandoned
// value (> bound) as the true distance — it is only a certificate that
// the true distance exceeds the bound. bound = +Inf degrades to the
// exact kernel. The equivalence is in float64 arithmetic, not real
// arithmetic: an abandoned return is guaranteed to land on the same
// side of the bound as the exact kernel's rounded result, so query
// results and traversal decisions are bit-identical either way.
type BoundedDistanceFunc[T any] func(a, b T, bound float64) float64

// AngularUpTo is the bounded kernel for Angular. The angle admits no
// sound partial-sum abandonment: the three accumulators (dot product
// and both squared norms) are not monotone toward the final arccos,
// and by Cauchy–Schwarz an unseen coordinate tail can always pull the
// cosine arbitrarily close to 1 (distance toward 0), so no prefix
// state can certify "final angle > bound". The kernel therefore
// computes the exact value — trivially satisfying the
// BoundedDistanceFunc contract — and its registration keeps Counters
// over Angular on the registered-kernel dispatch path (no per-Counter
// fallback closure) instead of silently degrading leaf scans to the
// exact-only path. Workloads that can pre-normalize should prefer
// Cosine, whose L2 form abandons early and quantizes.
func AngularUpTo(a, b []float64, _ float64) float64 {
	return Angular(a, b)
}

// L1UpTo is the early-abandoning Manhattan distance: the partial sum is
// monotone, so once it exceeds bound the scan stops and the partial sum
// (already > bound, and a lower bound on the true distance) is returned.
func L1UpTo(a, b []float64, bound float64) float64 {
	checkLen(a, b)
	b = b[:len(a)]
	var s float64
	// Unrolled four-wide with one abandonment check per chunk. The
	// accumulation order is exactly the element-at-a-time order, so any
	// value returned at or below the bound is bit-identical to L1's;
	// checking per chunk only delays abandonment by at most three terms
	// (the partial sum is monotone, so the decision cannot flip).
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += math.Abs(a[i] - b[i])
		s += math.Abs(a[i+1] - b[i+1])
		s += math.Abs(a[i+2] - b[i+2])
		s += math.Abs(a[i+3] - b[i+3])
		if s > bound {
			return s
		}
	}
	for ; i < len(a); i++ {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// L2UpTo is the early-abandoning Euclidean distance. It accumulates in
// squared space and compares against bound² so the inner loop stays
// sqrt-free; when the squared partial first exceeds bound² the square
// root of the partial is taken once to verify the abandon is safe under
// float64 rounding (sqrt is correctly rounded and monotone, so
// √partial > bound implies the exact kernel's √total > bound).
func L2UpTo(a, b []float64, bound float64) float64 {
	checkLen(a, b)
	b = b[:len(a)]
	b2 := bound * bound
	var s float64
	// Unrolled four-wide with one abandonment check per chunk, in the
	// exact element-at-a-time accumulation order — any value returned at
	// or below the bound is bit-identical to L2's, and the monotone
	// partial sum means a per-chunk check only abandons a few terms
	// later than a per-element one would.
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
		if s > b2 {
			if ret := math.Sqrt(s); ret > bound {
				return ret
			}
			// Rounding left √s at or below the bound; keep scanning.
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// LInfUpTo is the early-abandoning Chebyshev distance: the running
// maximum is monotone, so the scan stops as soon as it exceeds bound.
func LInfUpTo(a, b []float64, bound float64) float64 {
	checkLen(a, b)
	var s float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > s {
			s = d
			if s > bound {
				return s
			}
		}
	}
	return s
}

// CanberraUpTo is the early-abandoning Canberra distance (monotone
// partial sum, same abandonment argument as L1UpTo).
func CanberraUpTo(a, b []float64, bound float64) float64 {
	checkLen(a, b)
	var s float64
	for i := range a {
		num := math.Abs(a[i] - b[i])
		if num == 0 {
			continue
		}
		s += num / (math.Abs(a[i]) + math.Abs(b[i]))
		if s > bound {
			return s
		}
	}
	return s
}

// HammingUpTo is the early-abandoning Hamming distance: the mismatch
// count is monotone, so the scan stops once it exceeds bound.
func HammingUpTo(a, b string, bound float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := len(a) - n + len(b) - n // length-difference term, known up front
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			d++
			if float64(d) > bound {
				return float64(d)
			}
		}
	}
	return float64(d)
}

// powAbandonSlack is the relative margin the math.Pow-based kernels
// demand before abandoning. math.Pow is not guaranteed correctly
// rounded, so — unlike sqrt — pow(partial, 1/p) > bound does not by
// itself prove pow(total, 1/p) > bound in float64. Requiring the
// finalized partial to clear the bound by ~4000 ulps puts the decision
// far outside pow's error bound; the cost is only that a vanishingly
// thin near-threshold band is never abandoned.
const powAbandonSlack = 1e-12

// LpUpTo returns the early-abandoning Minkowski distance of order
// p >= 1, the bounded counterpart of Lp(p). Attach it to a Counter with
// SetBounded (Lp's closures cannot be auto-registered). Lp(1), Lp(2)
// and Lp(+Inf) callers should prefer L1UpTo/L2UpTo/LInfUpTo, which
// NewCounter already wires automatically.
func LpUpTo(p float64) BoundedDistanceFunc[[]float64] {
	if p < 1 {
		panic("metric: LpUpTo requires p >= 1")
	}
	if math.IsInf(p, 1) {
		return LInfUpTo
	}
	switch p {
	case 1:
		return L1UpTo
	case 2:
		return L2UpTo
	}
	return func(a, b []float64, bound float64) float64 {
		checkLen(a, b)
		bp := math.Pow(bound, p)
		var s float64
		for i := range a {
			s += math.Pow(math.Abs(a[i]-b[i]), p)
			if s > bp {
				if ret := math.Pow(s, 1/p); ret > bound*(1+powAbandonSlack) && ret > bound {
					return ret
				}
			}
		}
		return math.Pow(s, 1/p)
	}
}

// WeightedLpUpTo returns the early-abandoning weighted Minkowski
// distance, the bounded counterpart of WeightedLp(p, w). Attach it to a
// Counter with SetBounded.
func WeightedLpUpTo(p float64, w []float64) BoundedDistanceFunc[[]float64] {
	if p < 1 {
		panic("metric: WeightedLpUpTo requires p >= 1")
	}
	for _, x := range w {
		if x <= 0 {
			panic("metric: WeightedLpUpTo requires positive weights")
		}
	}
	weights := make([]float64, len(w))
	copy(weights, w)
	if math.IsInf(p, 1) {
		return func(a, b []float64, bound float64) float64 {
			checkLen(a, b)
			checkWeightLen(a, weights)
			var s float64
			for i := range a {
				d := math.Abs(a[i]-b[i]) * weights[i]
				if d > s {
					s = d
					if s > bound {
						return s
					}
				}
			}
			return s
		}
	}
	return func(a, b []float64, bound float64) float64 {
		checkLen(a, b)
		checkWeightLen(a, weights)
		bp := math.Pow(bound, p)
		var s float64
		for i := range a {
			s += math.Pow(math.Abs(a[i]-b[i])*weights[i], p)
			if s > bp {
				if ret := math.Pow(s, 1/p); ret > bound*(1+powAbandonSlack) && ret > bound {
					return ret
				}
			}
		}
		return math.Pow(s, 1/p)
	}
}

func checkWeightLen(a, weights []float64) {
	if len(a) != len(weights) {
		panic("metric: vector length does not match weight length")
	}
}
