package metric

import (
	"reflect"
	"sync"
)

// Kernels is what a top-level distance function may carry beside its
// exact form: the early-abandoning one-to-one kernel DistanceUpTo runs
// (BoundedDistanceFunc), the shape that licenses the quantized
// pre-filter (QuantKind) and the exact one-to-many kernel construction
// measures its rows through (RowDistanceFunc: out[i] is bit-for-bit
// exact(items[ids[i]], p), always exact, with no bound). Each field is
// optional — its zero value means the Counter falls back to the exact
// function, no pre-filter, and a loop over the exact function — and
// each non-zero field is a contract with the exact function, stated on
// its type; breaking one silently corrupts query results or trees.
type Kernels[T any] struct {
	Bounded BoundedDistanceFunc[T]
	Quant   QuantKind
	Row     RowDistanceFunc[T]
}

// registry maps the code pointer of a registered exact function to its
// Kernels[X] (stored as any), so NewCounter can attach every fast path
// with one probe. Only top-level functions may be registered: closures
// produced by the same function literal share one code pointer, which
// would make the lookup ambiguous (use Counter.SetBounded, SetRow and
// SetQuantKind for those).
var registry sync.Map

// Register records k as the kernels of the top-level distance function
// exact, replacing any earlier record: Counters created by NewCounter
// over exact afterwards dispatch through them. A distinct top-level
// wrapper of exact has its own code pointer and needs its own record.
func Register[T any](exact DistanceFunc[T], k Kernels[T]) {
	if exact == nil {
		panic("metric: Register requires a non-nil function")
	}
	registry.Store(reflect.ValueOf(exact).Pointer(), k)
}

// Alias registers wrapper — a distinct top-level function that computes
// exactly what exact does — with whatever exact has registered, so the
// two cannot drift apart.
func Alias[T any](wrapper, exact DistanceFunc[T]) { Register(wrapper, lookup(exact)) }

// lookup returns the registered kernels of fn, or the zero record (a nil
// fn has code pointer 0, which Register never stores).
func lookup[T any](fn DistanceFunc[T]) Kernels[T] {
	v, _ := registry.Load(reflect.ValueOf(fn).Pointer())
	k, _ := v.(Kernels[T])
	return k
}

func init() {
	Register(L1, Kernels[[]float64]{Bounded: L1UpTo, Quant: QuantL1})
	Register(L2, Kernels[[]float64]{Bounded: L2UpTo, Quant: QuantL2, Row: L2Row})
	Register(LInf, Kernels[[]float64]{Bounded: LInfUpTo, Quant: QuantLInf})
	// Cosine computes exactly what L2 does, so every L2 kernel serves it.
	Alias(Cosine, L2)
	Register(Canberra, Kernels[[]float64]{Bounded: CanberraUpTo})
	Register(Angular, Kernels[[]float64]{Bounded: AngularUpTo})
	Register(Edit, Kernels[string]{Bounded: EditUpTo, Row: EditRow})
	Register(Hamming, Kernels[string]{Bounded: HammingUpTo})
}
