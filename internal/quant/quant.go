// Package quant builds a small companion representation of []float64
// datasets — SQ8 byte codes — together with guaranteed lower-bound
// distance kernels over it, so leaf scans can reject most candidates
// from 1/8th of the memory traffic before touching the exact f64
// vectors.
//
// The pre-filter is decision-preserving by construction: a candidate
// is skipped only when its lower bound certifies that the exact
// float64 kernel would report a distance strictly above the caller's
// threshold. Query results, result order, SearchStats and distance
// counts are therefore byte-identical with the filter on or off —
// callers charge a skipped candidate exactly as they charge an
// abandoned DistanceUpTo call (one computation), because the skip is
// an abandonment certificate, just a cheaper one.
//
// # SQ8 lower bounds
//
// Training scans the dataset once per dimension for [lo_j, hi_j] and
// splits the range into 256 cells of width step_j. Encoding stores the
// cell index; the kernel knows the true coordinate lies inside the
// cell, so the distance from the query coordinate to the cell interval
// is a per-dimension lower bound (interval arithmetic), aggregated by
// the metric's QuantKind: summed for L1, summed in squared space for
// L2, maxed for L∞.
//
// Floating-point safety is handled in two layers. Encoding nudges the
// cell index with the same float expressions the kernel evaluates, so
// cell membership holds in float arithmetic up to a few ulps; a
// per-dimension absolute margin eta_j (a small multiple of the
// dimension's magnitude ulp) is subtracted from every contribution to
// absorb that residue. Accumulation error is relative and absorbed by
// deflating comparisons: the filter rejects only when the accumulated
// bound exceeds threshold·(1+slack), with slack sized to dominate
// every rounding term (see slackFor). The float32 contribution tables
// are rounded toward zero, so table lookups never overstate.
package quant

import (
	"errors"
	"fmt"
	"math"

	"mvptree/internal/metric"
)

// Mode selects the companion representation.
type Mode uint8

const (
	// Off disables the quantized pre-filter.
	Off Mode = iota
	// SQ8 stores one byte per coordinate: per-dimension min/max scalar
	// quantization into 256 cells. Smallest representation, loosest
	// bounds; wins when scans are memory-bound.
	SQ8
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case SQ8:
		return "sq8"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Modes lists every valid Mode, the source of truth for flag parsing
// and table tests.
var Modes = []Mode{Off, SQ8}

// ParseMode maps a Mode's String form back to the value.
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes {
		if m.String() == s {
			return m, nil
		}
	}
	return Off, fmt.Errorf("quant: unknown mode %q (want off, sq8)", s)
}

// Set is a trained quantization: the per-dataset parameters shared by
// every encoded block plus the metric shape the lower bounds aggregate
// under. It is immutable after Build and safe for concurrent queries.
type Set struct {
	kind metric.QuantKind
	mode Mode
	dim  int

	// SQ8: cell c of dimension j spans [lo+c·step, lo+(c+1)·step];
	// eta is the absolute float-slop margin subtracted from every
	// contribution (see the package comment).
	lo, step, eta []float64

	// slack deflates threshold comparisons to absorb relative
	// accumulation error; fixed at training from the dimension.
	slack float64
}

// Kind reports the metric aggregation shape the set serves.
func (s *Set) Kind() metric.QuantKind { return s.kind }

// ModeOf reports the companion representation the set was trained for.
func (s *Set) ModeOf() Mode { return s.mode }

// Dim reports the vector dimensionality; every encoded block holds
// Dim() entries per item.
func (s *Set) Dim() int { return s.dim }

// slackFor sizes the relative comparison slack: a 1e-6 base plus a
// per-dimension term dominating every rounding source — float32 table
// accumulation (≤ dim·2⁻²⁴ ≈ dim·6e-8 relative), the couple of
// correctly-rounded f64 ops per term, and the exact kernel's own
// summation error on the other side of the comparison. Only true
// distances within a 1e-6 relative band of the threshold escape
// pruning because of it, a negligible power loss.
func slackFor(dim int) float64 { return 1e-6 + float64(dim)*1e-7 }

// ulp returns the distance from |x| to the next float64 toward +Inf.
func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// Quantized is the result of Build: the trained Set plus per-group
// code views into one contiguous arena, parallel to the input groups.
// Views are len(group)·Dim entries; the representation of group item i
// starts at i·Dim.
type Quantized struct {
	Set   *Set
	Codes [][]byte
}

// Build trains a Set over every vector in groups and encodes each
// group into a shared arena. It fails — callers should then leave the
// pre-filter off — when kind is QuantNone, mode is Off, the dataset is
// empty or dimensionally inconsistent, or any coordinate is non-finite.
func Build(kind metric.QuantKind, mode Mode, groups [][][]float64) (*Quantized, error) {
	if kind == metric.QuantNone {
		return nil, errors.New("quant: metric has no quantized lower-bound shape")
	}
	if mode != SQ8 {
		return nil, fmt.Errorf("quant: cannot build arenas for mode %v", mode)
	}
	dim, total := -1, 0
	for _, g := range groups {
		for _, v := range g {
			if dim == -1 {
				dim = len(v)
			} else if len(v) != dim {
				return nil, fmt.Errorf("quant: inconsistent dimensions %d and %d", dim, len(v))
			}
			total++
		}
	}
	if total == 0 || dim <= 0 {
		return nil, errors.New("quant: no vectors to quantize")
	}
	s := &Set{kind: kind, mode: mode, dim: dim, slack: slackFor(dim)}
	q := &Quantized{Set: s}
	if err := s.train(groups); err != nil {
		return nil, err
	}
	arena := make([]byte, total*dim)
	off := 0
	for _, g := range groups {
		view := arena[off : off+len(g)*dim : off+len(g)*dim]
		for i, v := range g {
			s.encodeSQ8(v, view[i*dim:(i+1)*dim])
		}
		q.Codes = append(q.Codes, view)
		off += len(g) * dim
	}
	return q, nil
}

// train fits the per-dimension parameters over every vector.
func (s *Set) train(groups [][][]float64) error {
	dim := s.dim
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for j := range lo {
		lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	for _, g := range groups {
		for _, v := range g {
			for j, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return errors.New("quant: dataset has non-finite coordinates")
				}
				if x < lo[j] {
					lo[j] = x
				}
				if x > hi[j] {
					hi[j] = x
				}
			}
		}
	}
	step := make([]float64, dim)
	eta := make([]float64, dim)
	for j := range step {
		scale := math.Max(math.Abs(lo[j]), math.Abs(hi[j]))
		if hi[j] > lo[j] {
			st := (hi[j] - lo[j]) / 256
			// The top cell must cover hi under the kernel's own float
			// expressions (cellLo(255)+step ≥ hi); widen the step until
			// it does. The ulp floor makes the nextafter loop converge
			// in a handful of iterations; the doubling fallback bounds
			// it absolutely.
			if u := ulp(scale); st < u {
				st = u
			}
			for i := 0; lo[j]+255*st+st < hi[j]; i++ {
				if i < 64 {
					st = math.Nextafter(st, math.Inf(1))
				} else {
					st *= 2
				}
			}
			step[j] = st
		}
		// Cell membership is enforced with the kernel's own float
		// expressions up to a few ulps of the dimension's magnitude
		// (see encodeSQ8); 8 ulps of the widest value a cell bound can
		// take absorbs the residue.
		eta[j] = 8 * ulp(scale+256*step[j])
	}
	s.lo, s.step, s.eta = lo, step, eta
	return nil
}

// encodeSQ8 writes v's cell indices into dst. The initial index is the
// arithmetic guess; the nudge loops re-evaluate the exact expressions
// the contribution table uses (lo + c·step and +step), so membership
// holds in float arithmetic up to the ulp residue eta absorbs. The
// bottom cell's lower bound is exactly lo (the true minimum) and
// training guaranteed the top cell covers hi, so the extremes are
// exact.
func (s *Set) encodeSQ8(v []float64, dst []byte) {
	for j, x := range v {
		lo, st := s.lo[j], s.step[j]
		c := 0
		if st > 0 {
			c = int((x - lo) / st)
			if c < 0 {
				c = 0
			} else if c > 255 {
				c = 255
			}
			for c > 0 && lo+float64(c)*st > x {
				c--
			}
			for c < 255 && lo+float64(c)*st+st < x {
				c++
			}
		}
		dst[j] = byte(c)
	}
}
