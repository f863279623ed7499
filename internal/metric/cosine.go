package metric

import "math"

// Cosine is the exact "cosine distance" metric for unit vectors: the
// Euclidean distance between L2-normalized inputs. Cosine similarity
// itself (1 − cosθ) is not a metric — it violates the triangle
// inequality — but on unit vectors it is a monotone function of the
// chord length this function computes:
//
//	‖a − b‖² = 2 − 2·cosθ   ⟹   1 − cosθ = Cosine(a, b)² / 2
//
// so range and kNN queries under Cosine rank and select exactly as a
// cosine-similarity search would, while the index gets a true metric
// (it is literally L2 restricted to the unit sphere). Inputs must be
// unit vectors — run a dataset and its queries through NormalizeL2 (or
// NormalizeL2Set) first; the function does not re-normalize, so the
// normalization cost is paid once per vector, not per distance.
//
// Cosine shares every L2 fast path, being registered as L2's alias:
// NewCounter serves DistanceUpTo through the early-abandoning L2UpTo
// kernel, construction measures its rows through L2Row, and the
// quantized pre-filter uses the L2 lower-bound shape (QuantL2), so
// embedding-style workloads get the whole hot-path stack for free.
// For non-normalized inputs that should compare by direction only, use
// Angular instead, which is scale-invariant but has no early-abandoning
// or quantized fast path.
func Cosine(a, b []float64) float64 { return L2(a, b) }

// NormalizeL2 scales v to unit Euclidean length in place and returns
// it, the preparation step for the Cosine metric. It panics on zero
// vectors and vectors with non-finite coordinates, which have no
// direction to preserve.
func NormalizeL2(v []float64) []float64 {
	var n float64
	for _, x := range v {
		n += x * x
	}
	n = math.Sqrt(n)
	if n == 0 || math.IsInf(n, 1) || math.IsNaN(n) {
		panic("metric: NormalizeL2 requires a non-zero finite vector")
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return v
}

// NormalizeL2Set normalizes every vector of a dataset in place and
// returns the slice, so items and queries can be prepared for Cosine
// in one call.
func NormalizeL2Set(vs [][]float64) [][]float64 {
	for _, v := range vs {
		NormalizeL2(v)
	}
	return vs
}
