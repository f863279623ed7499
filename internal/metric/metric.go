// Package metric defines metric distance functions for similarity search
// and the instrumentation used throughout this repository to count how
// many times a distance function is invoked.
//
// A metric distance function d satisfies, for all x, y, z:
//
//	d(x, y) == d(y, x)                  (symmetry)
//	0 < d(x, y) < +Inf  for x != y      (positivity)
//	d(x, x) == 0                        (identity)
//	d(x, y) <= d(x, z) + d(z, y)        (triangle inequality)
//
// Distance-based index structures rely only on these axioms; they never
// inspect coordinates. Because the paper's cost model is "number of
// distance computations per query", every index in this repository calls
// the metric exclusively through a Counter.
package metric

import (
	"math"
	"sync/atomic"
)

// DistanceFunc computes the distance between two items of type T. It must
// satisfy the metric axioms documented in the package comment for the
// index structures built on top of it to return correct results.
type DistanceFunc[T any] func(a, b T) float64

// Counter wraps a DistanceFunc and counts invocations. It is the cost
// meter used by every index structure and benchmark in this repository.
//
// Counter is safe for concurrent use: the count is a single atomic
// word, so queries sharing one index (and therefore one Counter) may
// run on any number of goroutines, provided the wrapped DistanceFunc is
// itself safe for concurrent calls (all built-in metrics are). Note the
// count is shared across every goroutine using the Counter; to attribute
// distance computations to one query while others are in flight, use the
// per-query SearchStats variants (RangeWithStats, KNNWithStats) instead
// of Count deltas.
type Counter[T any] struct {
	fn       DistanceFunc[T]
	bounded  BoundedDistanceFunc[T]
	fallback BoundedDistanceFunc[T] // fn ignoring the bound; built once
	block    BlockDistanceFunc[T]
	blockFB  BlockDistanceFunc[T] // loop over Kernel(); built once
	quant    QuantKind
	row      RowDistanceFunc[T]
	count    atomic.Int64
}

// NewCounter returns a Counter wrapping fn. If fn is a top-level
// function with registered kernels (see Register), the Counter picks
// them up with one probe: DistanceUpTo runs the early-abandoning kernel,
// DistanceBlock the blocked one, QuantKind reports the quantized
// lower-bound shape and Row returns the exact row kernel; each falls
// back to the exact function where the record has nothing. Use
// SetBounded, SetBlock, SetRow and SetQuantKind to attach fast paths to
// a closure.
func NewCounter[T any](fn DistanceFunc[T]) *Counter[T] {
	k := lookup(fn)
	c := &Counter[T]{fn: fn, bounded: k.Bounded, block: k.Block, quant: k.Quant, row: k.Row}
	if fn != nil {
		c.fallback = func(a, b T, _ float64) float64 { return fn(a, b) }
		// The block fallback loops the one-to-one kernel with the query as
		// the first argument — the orientation every sequential leaf scan
		// and vantage evaluation uses — so batched and per-query paths
		// agree bit-for-bit even for metrics whose float rounding is not
		// orientation-symmetric. It reads c.bounded at call time, so a
		// later SetBounded is honoured.
		c.blockFB = func(p T, qs []T, bounds, out []float64) {
			checkBlockLens(qs, bounds, out)
			k := c.Kernel()
			if bounds == nil {
				inf := math.Inf(1)
				for j, q := range qs {
					out[j] = k(q, p, inf)
				}
				return
			}
			for j, q := range qs {
				out[j] = k(q, p, bounds[j])
			}
		}
	}
	return c
}

// Distance computes fn(a, b) and increments the invocation count.
func (c *Counter[T]) Distance(a, b T) float64 {
	c.count.Add(1)
	return c.fn(a, b)
}

// DistanceUpTo computes the distance between a and b with permission to
// abandon early once the result is known to exceed bound. The return
// value obeys the BoundedDistanceFunc contract: if it is ≤ bound it is
// exactly Distance(a, b); if it is > bound then Distance(a, b) would
// also be > bound (but the value itself may understate it). Each call
// counts as one distance computation regardless of abandonment, so cost
// accounting is unchanged by the fast path. When no bounded kernel is
// attached this is exactly Distance.
func (c *Counter[T]) DistanceUpTo(a, b T, bound float64) float64 {
	c.count.Add(1)
	if c.bounded != nil {
		return c.bounded(a, b, bound)
	}
	return c.fn(a, b)
}

// SetBounded attaches (or, with nil, detaches) an early-abandoning fast
// path for the wrapped distance function, overriding whatever NewCounter
// discovered in the registry. fn must satisfy the BoundedDistanceFunc
// contract with respect to the wrapped exact kernel. This is the hook
// for closure-built metrics (Lp, WeightedLp, Scaled), which cannot be
// registered globally. SetBounded is not synchronized with in-flight
// queries; attach fast paths before serving.
func (c *Counter[T]) SetBounded(fn BoundedDistanceFunc[T]) { c.bounded = fn }

// Bounded returns the attached early-abandoning fast path, or nil.
func (c *Counter[T]) Bounded() BoundedDistanceFunc[T] { return c.bounded }

// Count reports the number of Distance calls since the last Reset.
func (c *Counter[T]) Count() int64 { return c.count.Load() }

// Add records n distance computations performed outside Distance — used
// by parallel construction, which evaluates the raw function on worker
// goroutines and settles the count once afterwards.
func (c *Counter[T]) Add(n int64) { c.count.Add(n) }

// Reset sets the invocation count back to zero.
func (c *Counter[T]) Reset() { c.count.Store(0) }

// Func returns the wrapped distance function, uncounted.
func (c *Counter[T]) Func() DistanceFunc[T] { return c.fn }

// DistanceBlock computes the distance between p and every query in qs,
// writing d(p, qs[j]) into out[j] exactly, and counts len(qs) distance
// computations — the same total as len(qs) Distance calls. When the
// wrapped function has a blocked kernel (Register / SetBlock) the
// data vector is streamed once against the whole resident block;
// otherwise a loop over the one-to-one kernel produces identical
// values.
func (c *Counter[T]) DistanceBlock(p T, qs []T, out []float64) {
	c.count.Add(int64(len(qs)))
	c.BlockKernel()(p, qs, nil, out)
}

// DistanceBlockUpTo is DistanceBlock with a per-query abandonment
// threshold: each out[j] obeys the BoundedDistanceFunc contract with
// respect to bounds[j] (see BlockDistanceFunc). Every query counts as
// one distance computation regardless of abandonment, so cost
// accounting matches len(qs) DistanceUpTo calls exactly.
func (c *Counter[T]) DistanceBlockUpTo(p T, qs []T, bounds, out []float64) {
	c.count.Add(int64(len(qs)))
	c.BlockKernel()(p, qs, bounds, out)
}

// SetBlock attaches (or, with nil, detaches) a blocked one-to-many
// kernel, overriding whatever NewCounter discovered in the registry.
// fn must satisfy the BlockDistanceFunc contract with respect to the
// wrapped exact kernel. This is the hook for closure-built metrics,
// which cannot be registered globally. Like SetBounded, it is not
// synchronized with in-flight queries; attach fast paths before
// serving.
func (c *Counter[T]) SetBlock(fn BlockDistanceFunc[T]) { c.block = fn }

// Block returns the attached blocked kernel, or nil.
func (c *Counter[T]) Block() BlockDistanceFunc[T] { return c.block }

// Row returns the exact row kernel, registered or attached with SetRow,
// uncounted, or nil when there is none; a caller without one loops
// Func. Like Kernel, its caller settles the count with Add(len(ids)).
func (c *Counter[T]) Row() RowDistanceFunc[T] { return c.row }

// SetRow attaches (or, with nil, detaches) an exact row kernel,
// overriding whatever NewCounter discovered in the registry. fn must
// satisfy the RowDistanceFunc contract with respect to the wrapped exact
// kernel. Like SetBounded, it is not synchronized with a build in
// flight; attach it before building.
func (c *Counter[T]) SetRow(fn RowDistanceFunc[T]) { c.row = fn }

// BlockKernel returns the uncounted function DistanceBlock dispatches
// to: the attached blocked kernel, or a cached wrapper that loops the
// one-to-one Kernel over the block. Hot loops may call it directly and
// settle the count with Add(n·B), exactly as with Kernel.
func (c *Counter[T]) BlockKernel() BlockDistanceFunc[T] {
	if c.block != nil {
		return c.block
	}
	return c.blockFB
}

// Kernel returns the uncounted function DistanceUpTo dispatches to: the
// attached early-abandoning kernel, or a cached wrapper that ignores
// the bound and computes exactly. Hot loops that measure many distances
// against thresholds may call it directly and settle the batch with
// Add(n), paying one atomic update per batch instead of per distance;
// the final count is identical to calling DistanceUpTo n times.
func (c *Counter[T]) Kernel() BoundedDistanceFunc[T] {
	if c.bounded != nil {
		return c.bounded
	}
	return c.fallback
}
