package mvp

import "math"

// The leaf filter stores every distance as a uint16 code on one
// tree-wide grid (the bound cascade's columns on a second, cascade.go):
// code·step with step a power of two, so decoding is
// exact and a query window becomes two integers compared against the
// codes with no conversion. A distance off the grid takes the odd code
// beside it — round-to-odd — and is then less than step away from what
// the code stands for; the tree's slack bounds that loss over every
// stored distance. |d(q,v) − x| ≥ |d(q,v) − code·step| − slack, so range
// windows widen by slack and kNN/farthest bounds give it back
// (docs/CORRECTNESS.md §2). Save keeps only step and the codes, so slack
// is derived from them: 0 when every code is even, step when one is odd,
// +Inf — the filter idles — when one is idleCode. Integer-valued
// distances up to 32 767 sit on even codes: such a metric has slack 0
// and filters as a float64 leaf would.

const (
	topCode  = 1<<16 - 2 // the largest code a distance on the grid takes
	idleCode = 1<<16 - 1 // a distance the grid cannot hold: +Inf, NaN, negative

	// The exponents a step can have: every float64 is a multiple of
	// 2^minStepExp, and MaxFloat64 / 2^maxStepExp ≤ topCode.
	minStepExp, maxStepExp = -1074, 1009
)

// stepExp returns e such that 2^e is the smallest step that puts the
// largest finite distance in raw on a code ≤ topCode.
func stepExp(raw []float64) int { return expFor(largest(raw)) }

// largest returns the largest finite distance in raw, 0 if none is
// positive.
func largest(raw []float64) float64 {
	var top float64
	for _, x := range raw {
		if x > top && x <= math.MaxFloat64 {
			top = x
		}
	}
	return top
}

// expFor is stepExp of a row whose largest finite distance is top.
func expFor(top float64) int {
	// top = f·2^e with f in [0.5, 1): 2^(e−16) is the step unless f·2¹⁶
	// passes topCode.
	_, e := math.Frexp(top)
	e = max(e-16, minStepExp)
	if top/math.Ldexp(1, e) > topCode {
		e++
	}
	return e
}

// encode returns the code stored for the distance x on the grid of step:
// x/step when that is a whole number, else x/step truncated with its last
// bit then set (the odd neighbour, within step of x and never zero).
func encode(x, step float64) uint16 {
	if !(x >= 0 && x/step <= topCode) {
		return idleCode
	}
	c := uint16(x / step)
	// c·step is exact, x/step is not when it underflows.
	if float64(c)*step != x {
		c |= 1
	}
	return c
}

// slackOf bounds what encode may have rounded off the stored distances.
func slackOf(codes []uint16, step float64) float64 { return sumOf(codes).slack(step) }

// codeSum is what the filter's rules read of a set of codes: all, their
// OR, and top, the largest.
type codeSum struct{ all, top uint16 }

// sumOf returns the codeSum of codes; add joins two sums.
func sumOf(codes []uint16) (s codeSum) {
	for _, c := range codes {
		s.all, s.top = s.all|c, max(s.top, c)
	}
	return s
}

func (s codeSum) add(o codeSum) codeSum { return codeSum{s.all | o.all, max(s.top, o.top)} }

// slack is slackOf the codes: +Inf when one is idleCode, the largest
// there is, else step when one is odd, else 0.
func (s codeSum) slack(step float64) float64 {
	if s.top == idleCode {
		return math.Inf(1)
	}
	return float64(s.all&1) * step
}

// decode returns the distance code c stands for; exact.
func (t *Tree[T]) decode(c uint16) float64 { return float64(c) * t.step }

// The tree holds its leaf codes in bytes when a byte loses nothing: the
// slack is 0 and every code is a multiple of 2^s, s the smallest shift
// that brings the largest code to narrowTop or below. The arena then
// holds c>>s, codes on the grid of step·2^s, which stand for the same
// distances. Integer distances up to 254 always are (edit distances over
// words: a few dozen at most). The rule reads only the codes, so a build
// and a Load of its Save reach the same width; Save writes the codes
// widened again (wideCode), and the step, top1 and top2 are the wide
// grid's whatever the width.
const narrowTop = 1<<8 - 2

// code is the type of a leaf filter code: uint16 on the tree's grid, or
// a byte on the grid 2^shift times as coarse.
type code interface{ uint8 | uint16 }

// shift returns the shift that puts every code in a byte exactly, and
// whether there is one: an odd code is off the grid or idle, slack a
// byte would hide.
func (s codeSum) shift() (shift uint8, ok bool) {
	for s.top>>shift > narrowTop {
		shift++
	}
	return shift, s.all&1 == 0 && s.all&(1<<shift-1) == 0
}

// settle sets the tree's slack from sum, the sum of its codes, and moves
// the filter arena into bytes where they hold every code exactly: one
// pass over the codes once they are all in place. The build's seal and
// Load end here.
func (t *Tree[T]) settle(sum codeSum) {
	t.slack = sum.slack(t.step)
	shift, ok := sum.shift()
	if !ok || len(t.filter) == 0 {
		return
	}
	narrow := make([]uint8, len(t.filter))
	for i, c := range t.filter {
		narrow[i] = uint8(c >> shift)
	}
	t.filter, t.narrow, t.shift = nil, narrow, shift
}

// wideCode returns the code on the tree's grid that the byte c of a
// narrow arena stands for: what Save writes for it.
func (t *Tree[T]) wideCode(c uint8) uint16 { return uint16(c) << t.shift }

// codeAt returns the j-th code of the filter arena on the tree's grid,
// whatever its width.
func (t *Tree[T]) codeAt(j int) uint16 {
	if t.narrow != nil {
		return t.wideCode(t.narrow[j])
	}
	return t.filter[j]
}

// Widen keeps the leaf filter in 16-bit codes from now on, as a tree
// whose codes a byte cannot hold does: answers, stats, counts and Save
// bytes are the same either way, FilterBytes doubles. It is the wide twin
// of the differential tests. It is not synchronized with in-flight
// queries.
func (t *Tree[T]) Widen() {
	if t.narrow == nil {
		return
	}
	t.filter = make([]uint16, len(t.narrow))
	for i, c := range t.narrow {
		t.filter[i] = t.wideCode(c)
	}
	t.narrow, t.shift = nil, 0
}

// window is window on the tree's grid, narrowed to the arena it holds.
func (t *Tree[T]) window(lo, hi float64) (lo16, hi16 uint16) {
	return t.narrowed(window(lo, hi, t.step))
}

// narrowed returns, of a window lo ≤ c ≤ hi of codes on the tree's grid,
// the codes of the arena the tree holds whose wide codes it keeps: the
// same window when the arena is wide, else the bytes b with
// lo ≤ b<<shift ≤ hi. Every byte then passes exactly where its wide code
// would, whatever the bounds (docs/CORRECTNESS.md §2).
func (t *Tree[T]) narrowed(lo, hi uint16) (uint16, uint16) {
	return uint16((uint32(lo) + 1<<t.shift - 1) >> t.shift), hi >> t.shift
}

// window returns the codes lo16 ≤ c ≤ hi16 of the values inside [lo, hi]
// on the grid of step. The divisions are exact, so no code in the window
// is lost and — off the ends of the grid — none outside it is admitted; a
// bound that overflows, underflows or is NaN (Inf − Inf under an idle
// filter) moves outward.
func window(lo, hi, step float64) (lo16, hi16 uint16) {
	lo, hi = lo/step, hi/step
	switch {
	case lo > idleCode:
		lo16 = idleCode
	case lo > 0:
		lo16 = uint16(lo)
		if float64(lo16) < lo {
			lo16++ // the ceiling
		}
	}
	switch {
	case hi < 0:
	case hi < idleCode:
		hi16 = uint16(hi) // the floor
	default:
		hi16 = idleCode
	}
	return lo16, hi16
}

// knnWindow returns the codes lo ≤ c ≤ hi (lo > hi when there are none)
// that a kNN bound keeps on the grid of step: those with
// !(|d − c·step| − s ≥ b), the float comparison of a bound decoded from
// the code, to the last rounding. The leaf scan's columns take s = 0 and
// b = τ′/(1+ε) + slack, the cascade's s = cslack and b = τ′/(1+ε). c·step
// is exact and subtraction rounds monotonically, so d − c·step never
// rises as c does: while it is above zero the kept codes are a run that
// ends where it crosses, past that a run that starts there, and together
// one interval. window guesses its ends and the predicate settles each
// (settle). A NaN d or b keeps every code; b is never −Inf (it bounds a
// distance).
func knnWindow(d, s, b, step float64) (lo, hi uint16) {
	f := func(c int) float64 { return d - float64(c)*step }
	keep := func(c int) bool { return !(abs(f(c))-s >= b) }
	glo, ghi := window(d-(b+s), d+(b+s), step)
	// lo is the first code kept or past the crossing, hi+1 the first code
	// neither kept nor before it.
	l := settle(int(glo), func(c int) bool { return f(c) < 0 || keep(c) })
	if l > idleCode || !keep(l) {
		return 1, 0
	}
	h := settle(int(ghi)+1, func(c int) bool { return !(f(c) > 0 || keep(c)) })
	return uint16(l), uint16(h - 1)
}

// settle returns the first c in [0, 65536] at which ok holds, for an ok
// that fails below that code and holds from it on; 65536 stands for none
// and is never tested. It tests the guess g, then its neighbour on the
// side the first test points to, and bisects what is left: at most 18
// tests, two when the guess is at most one code off.
func settle(g int, ok func(int) bool) int {
	lo, hi := 0, 1<<16
	for tests := 0; lo < hi; tests++ {
		m := lo + (hi-lo)/2
		if tests < 2 {
			m = min(max(g, lo), hi-1)
		}
		if ok(m) {
			hi, g = m, m-1
		} else {
			lo, g = m+1, m+1
		}
	}
	return lo
}
