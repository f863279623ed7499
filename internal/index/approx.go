package index

// Approx is the per-query state every traversal threads through its
// recursion: the (1+ε) prune scale and the remaining distance budget.
// Structures construct one with StartApprox, consult Shrink for every
// prune decision, call Pay before every distance computation, poll Stop
// at loop heads, and stamp the outcome into the query's SearchStats
// with Finish. Compiled from zero-valued SearchOptions it is inert —
// Shrink(r) is r·1, Pay always succeeds, Stop never fires, Finish sets
// no flag — so the exact query is the same code with nothing switched
// on, not a second traversal.
//
// The discipline that keeps budget accounting exact (Distances() ==
// Counter delta even on budget-terminated queries): Pay debits the
// budget BEFORE the computation and, when it cannot, the caller must
// return without computing. A traversal therefore never overspends by
// even one computation, and every computation it did make was both
// counted in SearchStats and paid for.
type Approx struct {
	scale     float64 // 1/(1+ε); 1 when exact
	remaining int64
	limited   bool
	exhausted bool // the budget could not pay for a computation
}

// StartApprox compiles SearchOptions into traversal state.
func StartApprox(o SearchOptions) Approx {
	a := Approx{scale: 1}
	if o.Epsilon > 0 {
		a.scale = 1 / (1 + o.Epsilon)
	}
	if o.Budget > 0 {
		a.limited = true
		a.remaining = o.Budget
	}
	return a
}

// Shrink maps an exact prune radius (or kNN threshold τ) to its
// approximate counterpart r/(1+ε). Prune tests use the shrunken value;
// acceptance tests keep the full one, so reported answers are always
// true answers and anything within r/(1+ε) is never pruned.
func (a *Approx) Shrink(r float64) float64 { return r * a.scale }

// Pay debits n distance computations from the budget, reporting
// whether they fit. Once it returns false the traversal must stop
// without computing; Pay keeps returning false from then on.
func (a *Approx) Pay(n int) bool {
	if !a.limited {
		return true
	}
	if a.exhausted || a.remaining < int64(n) {
		a.exhausted = true
		return false
	}
	a.remaining -= int64(n)
	return true
}

// Stop reports whether the traversal must unwind now because the
// budget ran out. Poll it at loop and recursion heads.
func (a *Approx) Stop() bool { return a.exhausted }

// Finish stamps the query outcome into s: BudgetExhausted when the
// budget cut the traversal short, and Approximated whenever the answer
// is not certified exact (ε slack or an exhausted budget).
func (a *Approx) Finish(s *SearchStats) {
	if a.exhausted {
		s.BudgetExhausted = 1
	}
	if a.scale != 1 || a.exhausted {
		s.Approximated = 1
	}
}
