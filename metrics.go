package mvptree

import (
	"mvptree/internal/metric"
	"mvptree/internal/pgm"
)

// Built-in metrics. Each satisfies the metric axioms; see CheckAxioms
// for validating your own.

// The facade wrappers below are distinct top-level functions from the
// internal kernels they delegate to, so they carry their own code
// pointers. Each takes over the whole record its internal twin carries,
// so a Counter built over e.g. mvptree.L2 picks up the same fast paths
// as one built over metric.L2 (TestFacadeMetricsCarryInternalKernels):
// early abandoning, construction's row kernels, and the quantized
// lower-bound shape behind WithQuantized.
func init() {
	metric.Alias(L1, metric.L1)
	metric.Alias(L2, metric.L2)
	metric.Alias(LInf, metric.LInf)
	metric.Alias(Cosine, metric.Cosine)
	metric.Alias(Canberra, metric.Canberra)
	metric.Alias(Angular, metric.Angular)
	metric.Alias(EditDistance, metric.Edit)
	metric.Alias(HammingDistance, metric.Hamming)
}

// BoundedDistanceFunc computes d(a,b) with permission to stop early once
// the running value exceeds bound; see metric.BoundedDistanceFunc for
// the exact contract. Indexes probe for one when wrapping a metric in a
// Counter and use it on query paths where a distance only has to be
// compared against a threshold.
type BoundedDistanceFunc[T any] = metric.BoundedDistanceFunc[T]

// Kernels is the record of fast paths a top-level distance function may
// register beside its exact form: Bounded (early abandoning), Quant
// (the shape that lets indexes over []float64 items arm the
// WithQuantized pre-filter: QuantL1, QuantL2 or QuantLInf) and Row
// (construction's exact one-to-many kernel, one vantage point against
// the items picked by ids; see metric.RowDistanceFunc). Every field is
// optional; every field set is a contract with the exact function.
type Kernels[T any] = metric.Kernels[T]

// RegisterKernels associates k with the top-level distance function fn,
// so Counters over fn (built afterwards) use its fast paths
// automatically. The built-in metrics are pre-registered. For closures,
// use Counter.SetBounded, SetRow and SetQuantKind instead.
func RegisterKernels[T any](fn DistanceFunc[T], k Kernels[T]) {
	metric.Register(fn, k)
}

// L1 is the Manhattan distance on float64 vectors.
func L1(a, b []float64) float64 { return metric.L1(a, b) }

// L2 is the Euclidean distance on float64 vectors.
func L2(a, b []float64) float64 { return metric.L2(a, b) }

// LInf is the Chebyshev (maximum) distance on float64 vectors.
func LInf(a, b []float64) float64 { return metric.LInf(a, b) }

// Lp returns the Minkowski distance of order p ≥ 1.
func Lp(p float64) DistanceFunc[[]float64] { return metric.Lp(p) }

// WeightedLp returns a per-axis-weighted Minkowski distance of order
// p ≥ 1 with positive finite weights, the weighted variant the paper sketches
// for emphasizing image regions (§5.1.B).
func WeightedLp(p float64, w []float64) DistanceFunc[[]float64] { return metric.WeightedLp(p, w) }

// Scaled returns fn with every distance multiplied by a positive factor
// (the paper's distance normalization).
func Scaled[T any](fn DistanceFunc[T], factor float64) DistanceFunc[T] {
	return metric.Scaled(fn, factor)
}

// EditDistance is the Levenshtein distance on strings; integer-valued,
// so it also works with BK-trees.
func EditDistance(a, b string) float64 { return metric.Edit(a, b) }

// HammingDistance counts differing positions of two strings, extended to
// unequal lengths by the length difference; integer-valued.
func HammingDistance(a, b string) float64 { return metric.Hamming(a, b) }

// Discrete returns the 0/1 metric on any comparable type.
func Discrete[T comparable]() DistanceFunc[T] { return metric.Discrete[T]() }

// Image is an 8-bit gray-level image, the paper's second data domain.
type Image = pgm.Image

// NewImage returns a black image of the given size.
func NewImage(w, h int) *Image { return pgm.NewImage(w, h) }

// ImageL1 is the pixel-wise L1 distance between gray-level images (the
// paper treats a W×H image as a W·H-dimensional vector).
func ImageL1(a, b *Image) float64 { return pgm.L1(a, b) }

// ImageL2 is the pixel-wise Euclidean distance between gray-level
// images.
func ImageL2(a, b *Image) float64 { return pgm.L2(a, b) }

// Angular is the angle (radians) between two non-zero vectors — the
// metric form of cosine similarity. Scale-invariant; panics on zero
// vectors. A metric on normalized vectors, a pseudometric otherwise.
func Angular(a, b []float64) float64 { return metric.Angular(a, b) }

// Cosine is the chord metric for cosine similarity: the Euclidean
// distance between vectors the caller has already normalized to unit
// length (NormalizeL2 / NormalizeL2Set). On unit vectors it equals
// √(2·(1−cos θ)) — monotone in the angle, so range and kNN results
// rank identically to Angular — while remaining a true metric that
// supports early abandoning and the quantized pre-filter, which
// Angular's kernel structurally cannot.
func Cosine(a, b []float64) float64 { return metric.Cosine(a, b) }

// NormalizeL2 scales v to unit Euclidean length in place and returns
// it (zero and non-finite vectors are returned unchanged), the form
// Cosine expects.
func NormalizeL2(v []float64) []float64 { return metric.NormalizeL2(v) }

// NormalizeL2Set normalizes every vector in place and returns the
// slice.
func NormalizeL2Set(vs [][]float64) [][]float64 { return metric.NormalizeL2Set(vs) }

// Quantized lower-bound shapes for Kernels.Quant.
const (
	QuantL1   = metric.QuantL1
	QuantL2   = metric.QuantL2
	QuantLInf = metric.QuantLInf
)

// Jaccard is the Jaccard distance between two sets given as sorted,
// duplicate-free string slices (see NormalizeSet).
func Jaccard(a, b []string) float64 { return metric.Jaccard(a, b) }

// NormalizeSet sorts and deduplicates a string slice in place into the
// form Jaccard expects.
func NormalizeSet(s []string) []string { return metric.NormalizeSet(s) }

// Canberra is the Canberra distance on float64 vectors: the sum of
// per-dimension relative differences |aᵢ−bᵢ|/(|aᵢ|+|bᵢ|).
func Canberra(a, b []float64) float64 { return metric.Canberra(a, b) }
