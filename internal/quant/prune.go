package quant

import (
	"math"

	"mvptree/internal/metric"
)

// Prepared is the per-query state of the pre-filter, built once by
// Prepare and consulted per candidate by PruneAt. Callers pool it
// (index packages keep one in their query scratch) so steady-state
// queries allocate nothing; every buffer is reused at capacity.
type Prepared struct {
	// table is the SQ8 contribution table: table[j·256+c] is the
	// per-dimension lower bound of dimension j at cell c against this
	// query — eta-deflated, squared for L2, rounded toward zero so a
	// lookup never overstates. float32 keeps the table L1-resident
	// (dim·1 KB), which is what makes the byte scan cheaper than the
	// f64 kernel it screens for.
	table []float32

	// Threshold cache: thresholds are a function of the candidate
	// bound, which is constant for a range query and changes only when
	// a kNN heap improves, so the inflated comparison values are
	// memoized per bound.
	cachedBound float64
	thr32       float32 // comparison value (squared for L2)
}

// Prepare arms p for query q against the set. Must be called before
// PruneAt; p is reusable across queries and sets.
//
// The SQ8 table fill is on the per-query critical path (dim·256
// entries), so it runs as three branch-light segments per dimension:
// the query coordinate splits the cell axis into cells entirely below
// it (contribution qj − cellHi, shrinking toward the query), a zero
// band around it (widened by one cell each side so boundary rounding
// can only lose a sliver of pruning power, never soundness), and cells
// entirely above (cellLo − qj). Every entry is eta-deflated; the f64→
// f32 conversion and the L2 squaring round freely because their
// relative error is absorbed by the set's comparison slack.
func (s *Set) Prepare(p *Prepared, q []float64) {
	p.cachedBound = math.NaN()
	dim := s.dim
	if cap(p.table) < dim*256 {
		p.table = make([]float32, dim*256)
	}
	tbl := p.table[:dim*256]
	squared := s.kind == metric.QuantL2
	for j := 0; j < dim; j++ {
		lo, st, eta, qj := s.lo[j], s.step[j], s.eta[j], q[j]
		row := tbl[j*256 : j*256+256 : j*256+256]
		d := qj - lo
		if st == 0 {
			// Constant dimension: one exact cell, every code is 0.
			m := math.Abs(d) - eta
			if m < 0 {
				m = 0
			}
			if squared {
				m *= m
			}
			f := float32(m)
			for c := range row {
				row[c] = f
			}
			continue
		}
		x := d / st
		if x < 0 {
			x = 0
		} else if x > 255 {
			x = 255
		}
		ci := int(x)
		cLo, cHi := ci-1, ci+1
		if cLo < 0 {
			cLo = 0
		}
		if cHi > 255 {
			cHi = 255
		}
		// Cells below the query: m = (qj − lo) − (c+1)·step − eta. The
		// cell counter runs as an exact small-integer float so the only
		// rounding is the mul/sub chain eta covers.
		base := d - eta
		cf := 1.0
		for c := 0; c < cLo; c++ {
			m := base - cf*st
			cf++
			if m < 0 {
				m = 0
			}
			if squared {
				m *= m
			}
			row[c] = float32(m)
		}
		for c := cLo; c <= cHi; c++ {
			row[c] = 0
		}
		// Cells above the query: m = c·step − (qj − lo) − eta.
		base = d + eta
		cf = float64(cHi + 1)
		for c := cHi + 1; c < 256; c++ {
			m := cf*st - base
			cf++
			if m < 0 {
				m = 0
			}
			if squared {
				m *= m
			}
			row[c] = float32(m)
		}
	}
}

// PruneAt reports whether candidate i of the encoded block is
// certified to have exact distance > bound from the prepared query. A
// true return is a guarantee — the exact kernel's float64 result would
// exceed bound — so the caller may skip the exact computation without changing any
// result, ordering or count; a false return says nothing. The scan
// early-exits once the partial bound crosses the threshold, mirroring
// the exact kernels' abandonment.
func (s *Set) PruneAt(p *Prepared, codes []byte, i int, bound float64) bool {
	// +Inf (an unfilled kNN heap) can never be exceeded and NaN/negative
	// bounds never reach leaf scans with work to skip; bail before
	// paying for a scan.
	if !(bound >= 0) || math.IsInf(bound, 1) {
		return false
	}
	if bound != p.cachedBound {
		p.reThreshold(s, bound)
	}
	dim := s.dim
	return s.pruneSQ8(p, codes[i*dim:i*dim+dim])
}

// reThreshold recomputes the memoized comparison values for a new
// bound. The comparison is deflated by the set's relative slack
// (rejection needs lb > bound·(1+slack)); inflating the float32 form
// by one ulp keeps the conversion itself from tightening it.
func (p *Prepared) reThreshold(s *Set, bound float64) {
	p.cachedBound = bound
	thr := bound * (1 + s.slack)
	if s.kind == metric.QuantL2 {
		thr *= thr
	}
	p.thr32 = math.Nextafter32(float32(thr), float32(math.Inf(1)))
}

// pruneSQ8 scans one code block through the contribution table:
// 4-wide, one early exit per chunk. Partial sums (and maxes) of
// non-negative contributions are monotone, so crossing the threshold
// early is the same decision the full aggregate would make.
func (s *Set) pruneSQ8(p *Prepared, code []byte) bool {
	tbl := p.table
	thr := p.thr32
	if s.kind == metric.QuantLInf {
		for j, c := range code {
			if tbl[j<<8|int(c)] > thr {
				return true
			}
		}
		return false
	}
	// L1 and L2 share the loop: the table rows are already squared for
	// L2, so both aggregate by summation.
	var sum float32
	j := 0
	for ; j+4 <= len(code); j += 4 {
		sum += tbl[j<<8|int(code[j])]
		sum += tbl[(j+1)<<8|int(code[j+1])]
		sum += tbl[(j+2)<<8|int(code[j+2])]
		sum += tbl[(j+3)<<8|int(code[j+3])]
		if sum > thr {
			return true
		}
	}
	for ; j < len(code); j++ {
		sum += tbl[j<<8|int(code[j])]
	}
	return sum > thr
}

// LowerBoundAt returns the full (non-early-exiting) lower bound the
// pre-filter holds for candidate i, in the metric's own units — the
// quantLB(q, v) ≤ exact(q, v) quantity the property tests pin. The
// aggregate is deflated by the set's relative slack, the same margin
// PruneAt demands before rejecting, which is what absorbs the
// ulp-level arithmetic rounding of the per-dimension terms (eta covers
// representation error only). Query paths use PruneAt instead; this
// is the observable form.
func (s *Set) LowerBoundAt(p *Prepared, codes []byte, i int) float64 {
	dim := s.dim
	var sum, mx float64
	for j, c := range codes[i*dim : i*dim+dim] {
		t := float64(p.table[j<<8|int(c)])
		sum += t
		if t > mx {
			mx = t
		}
	}
	switch s.kind {
	case metric.QuantL2:
		return math.Sqrt(sum) / (1 + s.slack)
	case metric.QuantLInf:
		return mx / (1 + s.slack)
	default:
		return sum / (1 + s.slack)
	}
}
