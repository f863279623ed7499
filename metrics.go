package mvptree

import (
	"mvptree/internal/metric"
	"mvptree/internal/pgm"
)

// Built-in metrics. Each satisfies the metric axioms; see CheckAxioms
// for validating your own.

// The facade wrappers below are distinct top-level functions from the
// internal kernels they delegate to, so they carry their own code
// pointers. Register every kernel their internal twins carry, so a
// Counter built over e.g. mvptree.L2 picks up the same fast paths as
// one built over metric.L2 (TestFacadeMetricsCarryInternalKernels).
func init() {
	metric.RegisterBounded(L1, metric.L1UpTo)
	metric.RegisterBounded(L2, metric.L2UpTo)
	metric.RegisterBounded(LInf, metric.LInfUpTo)
	metric.RegisterBounded(Canberra, metric.CanberraUpTo)
	metric.RegisterBounded(EditDistance, metric.EditUpTo)
	metric.RegisterBounded(HammingDistance, metric.HammingUpTo)
	metric.RegisterBounded(Angular, metric.AngularUpTo)
	metric.RegisterBounded(Cosine, metric.L2UpTo)

	// Blocked one-to-many kernels, so SearchBatch over a facade metric
	// streams each data vector once per batch instead of once per query.
	metric.RegisterBlock(L1, metric.L1Block)
	metric.RegisterBlock(L2, metric.L2Block)
	metric.RegisterBlock(LInf, metric.LInfBlock)
	metric.RegisterBlock(Cosine, metric.L2Block)

	// Quantized lower-bound shapes (WithQuantized) for the same
	// wrappers; Cosine is L2 on the caller's pre-normalized vectors.
	metric.RegisterQuantized(L1, metric.QuantL1)
	metric.RegisterQuantized(L2, metric.QuantL2)
	metric.RegisterQuantized(LInf, metric.QuantLInf)
	metric.RegisterQuantized(Cosine, metric.QuantL2)
}

// BoundedDistanceFunc computes d(a,b) with permission to stop early once
// the running value exceeds bound; see metric.BoundedDistanceFunc for
// the exact contract. Indexes probe for one when wrapping a metric in a
// Counter and use it on query paths where a distance only has to be
// compared against a threshold.
type BoundedDistanceFunc[T any] = metric.BoundedDistanceFunc[T]

// RegisterBounded associates a bounded kernel with a top-level distance
// function so Counters over fn (built afterwards) use it automatically.
// For closures, use Counter.SetBounded instead.
func RegisterBounded[T any](fn DistanceFunc[T], bounded BoundedDistanceFunc[T]) {
	metric.RegisterBounded(fn, bounded)
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
// p ≥ 1 with positive weights, the weighted variant the paper sketches
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

// RegisterQuantized declares that exact (a top-level []float64 metric
// function) admits the quantized lower-bound shape kind, so indexes
// built over it can arm the WithQuantized pre-filter. The built-in
// L1/L2/LInf/Cosine are pre-registered.
func RegisterQuantized(exact DistanceFunc[[]float64], kind metric.QuantKind) {
	metric.RegisterQuantized(exact, kind)
}

// Quantized lower-bound shapes for RegisterQuantized.
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
