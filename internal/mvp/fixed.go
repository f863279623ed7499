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
func slackOf(codes []uint16, step float64) float64 {
	var odd uint16
	for _, c := range codes {
		if c == idleCode {
			return math.Inf(1)
		}
		odd |= c
	}
	return float64(odd&1) * step
}

// decode returns the distance code c stands for; exact.
func (t *Tree[T]) decode(c uint16) float64 { return float64(c) * t.step }

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
