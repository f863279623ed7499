package metric

import "math"

// BlockDistanceFunc is the blocked one-to-many form of a DistanceFunc:
// it evaluates one point p against a resident block of queries qs,
// writing d(p, qs[j]) into out[j]. bounds carries an optional per-query
// abandonment threshold (nil means every query is computed exactly).
// Each out[j] obeys the BoundedDistanceFunc contract with respect to
// bounds[j]:
//
//	out[j] <= bounds[j]  ⟹  out[j] is exactly the exact kernel's value
//	out[j] >  bounds[j]  ⟹  the exact kernel's value is also > bounds[j]
//
// The payoff over calling a one-to-one kernel in a loop is memory
// traffic: the block kernels below stream the shared vector p once and
// evaluate each loaded element against every still-live query, so a
// batch of B queries reads the data vector one time instead of B times.
// Per-query accumulation stays in the exact element-at-a-time order of
// the one-to-one kernels, so every out[j] — including abandoned ones —
// is bit-identical to what L1UpTo/L2UpTo/LInfUpTo(qs[j], p, bounds[j])
// returns, and traversal decisions built on either path agree exactly.
//
// len(out) must equal len(qs), and bounds must be nil or the same
// length. Kernels panic on length mismatches, mirroring the one-to-one
// kernels' checkLen.
type BlockDistanceFunc[T any] func(p T, qs []T, bounds []float64, out []float64)

// RowDistanceFunc is the exact one-to-many form of a DistanceFunc that
// construction measures its rows through: one point p against the items
// picked by ids, writing into out[i] a value bit-for-bit equal to
// exact(items[ids[i]], p). There is no bound and nothing is abandoned.
// The ids name the items in place, so a caller partitioning a
// permutation of positions never gathers them. len(out) must be at least
// len(ids).
//
// The payoff is whatever of p a kernel can prepare once for the whole
// row: EditRow builds p's match table once instead of once per pair.
type RowDistanceFunc[T any] func(p T, items []T, ids []int32, out []float64)

// checkBlockLens validates the slice-length invariants shared by every
// block kernel.
func checkBlockLens[T any](qs []T, bounds, out []float64) {
	if len(out) != len(qs) {
		panic("metric: block output length does not match query count")
	}
	if bounds != nil && len(bounds) != len(qs) {
		panic("metric: block bounds length does not match query count")
	}
}

// The blocked kernels below are query-major: each runs the exact
// one-to-one early-abandoning loop per query with the shared vector p
// as the second argument, so p is loaded from memory once and stays
// cache-resident across all B inner scans (at leaf-vector sizes it is a
// handful of cache lines). An element-major shape with per-element live
// masks was tried and rejected: it trades the tight two-slice inner
// loop — which the compiler keeps in registers with bounds checks
// hoisted — for scattered per-element accesses across B query vectors
// plus mask bookkeeping, and measures ~2x slower per distance at
// typical dimensions. Query-major keeps per-distance cost identical to
// the sequential path; the block's share of the batch's win is that p
// (a vantage point the whole group meets) is read once instead of B
// times, and that the caller settles counting once per block. A leaf's
// items are not measured through these kernels: each member of a group
// scans them with its own filters, one after another, while the shared
// descent keeps the leaf in cache. Bit-identity with
// UpTo(qs[j], p, bounds[j]) is by construction: it is the same code.

// L1Block is the blocked Manhattan kernel: L1UpTo per query against the
// resident p.
func L1Block(p []float64, qs [][]float64, bounds, out []float64) {
	checkBlockLens(qs, bounds, out)
	for j := range qs {
		b := math.Inf(1)
		if bounds != nil {
			b = bounds[j]
		}
		out[j] = L1UpTo(qs[j], p, b)
	}
}

// L2Block is the blocked Euclidean kernel: L2UpTo per query against the
// resident p.
func L2Block(p []float64, qs [][]float64, bounds, out []float64) {
	checkBlockLens(qs, bounds, out)
	for j := range qs {
		b := math.Inf(1)
		if bounds != nil {
			b = bounds[j]
		}
		out[j] = L2UpTo(qs[j], p, b)
	}
}

// LInfBlock is the blocked Chebyshev kernel: LInfUpTo per query against
// the resident p.
func LInfBlock(p []float64, qs [][]float64, bounds, out []float64) {
	checkBlockLens(qs, bounds, out)
	for j := range qs {
		b := math.Inf(1)
		if bounds != nil {
			b = bounds[j]
		}
		out[j] = LInfUpTo(qs[j], p, b)
	}
}
