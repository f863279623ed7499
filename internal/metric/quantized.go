package metric

// QuantKind names the aggregation shape of a vector metric, which is
// all the quantized pre-filter layer (internal/quant) needs to build a
// guaranteed lower-bound kernel over a compressed companion
// representation: per-dimension interval distances are summed (L1),
// summed in squared space (L2) or maxed (LInf). It is registered beside
// the bounded and row kernels (Kernels.Quant) — but where those
// replace the exact computation, a QuantKind only licenses a cheap
// pre-filter whose survivors still pay the exact kernel. Declaring a
// kind is a contract: for []float64 vectors a and b the exact function
// must be ≥ the interval lower bound the kind implies (true for
// L1/L2/LInf themselves and for any metric equal to one of them, such
// as Cosine = L2 on unit vectors); a kind that overstates the metric
// silently corrupts query results.
type QuantKind uint8

const (
	// QuantNone marks a metric with no quantized lower-bound shape;
	// indexes leave the pre-filter off.
	QuantNone QuantKind = iota
	// QuantL1 sums per-dimension lower bounds.
	QuantL1
	// QuantL2 sums squared per-dimension lower bounds and compares
	// against the squared threshold.
	QuantL2
	// QuantLInf takes the maximum per-dimension lower bound.
	QuantLInf
)

func (k QuantKind) String() string {
	switch k {
	case QuantNone:
		return "none"
	case QuantL1:
		return "l1"
	case QuantL2:
		return "l2"
	case QuantLInf:
		return "linf"
	default:
		return "quantkind(?)"
	}
}

// QuantKind reports the quantized lower-bound shape of the wrapped
// metric (QuantNone when the metric has none). Index structures probe
// this before building a quantized companion arena.
func (c *Counter[T]) QuantKind() QuantKind { return c.quant }

// SetQuantKind overrides the QuantKind NewCounter discovered in the
// registry — the hook for closure-built metrics that are known to be
// one of the registered shapes. The QuantKind contract applies. Not
// synchronized with in-flight queries; set before building quantized
// arenas.
func (c *Counter[T]) SetQuantKind(k QuantKind) { c.quant = k }
