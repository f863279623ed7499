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

import "sync/atomic"

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
	quant    QuantKind
	row      RowDistanceFunc[T]
	count    atomic.Int64
}

// NewCounter returns a Counter wrapping fn. If fn is a top-level
// function with registered kernels (see Register), the Counter picks
// them up with one probe: DistanceUpTo runs the early-abandoning kernel,
// QuantKind reports the quantized lower-bound shape and Row returns the
// exact row kernel; each falls back to the exact function where the
// record has nothing. Use SetBounded, SetRow and SetQuantKind to attach
// fast paths to a closure.
func NewCounter[T any](fn DistanceFunc[T]) *Counter[T] {
	k := lookup(fn)
	c := &Counter[T]{fn: fn, bounded: k.Bounded, quant: k.Quant, row: k.Row}
	if fn != nil {
		c.fallback = func(a, b T, _ float64) float64 { return fn(a, b) }
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
