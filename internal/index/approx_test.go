package index

import (
	"math"
	"testing"
)

// TestApprox pins the contract every traversal in the repository leans
// on: zero options are inert, a budget is spent to the unit and never
// past it, and a negative ε is no ε.
func TestApprox(t *testing.T) {
	t.Run("zero options are exact", func(t *testing.T) {
		a := StartApprox(SearchOptions{})
		for _, r := range []float64{0, 1, 0.1, 1e-300, 1e300, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
			if got := a.Shrink(r); math.Float64bits(got) != math.Float64bits(r) {
				t.Errorf("Shrink(%g) = %g, want the same bits", r, got)
			}
		}
		for i := 0; i < 1000; i++ {
			if !a.Pay(1 + i%3) {
				t.Fatalf("Pay refused at call %d with no budget set", i)
			}
		}
		if a.Stop() {
			t.Error("Stop fired with no budget")
		}
		var s SearchStats
		a.Finish(&s)
		if s != (SearchStats{}) {
			t.Errorf("Finish stamped %+v, want nothing", s)
		}
	})

	t.Run("budget is spent exactly", func(t *testing.T) {
		for _, tc := range []struct {
			budget int64
			pays   []int
			paid   int64 // units granted before the first refusal
		}{
			{budget: 5, pays: []int{1, 2, 2, 1}, paid: 5},
			{budget: 5, pays: []int{2, 2, 2, 1}, paid: 4}, // 2 does not fit in the last unit; the later 1 is refused too
			{budget: 1, pays: []int{2, 1}, paid: 0},
			{budget: 3, pays: []int{1, 1, 1}, paid: 3},
		} {
			a := StartApprox(SearchOptions{Budget: tc.budget})
			var paid int64
			refused := false
			for _, n := range tc.pays {
				ok := a.Pay(n)
				if refused && ok {
					t.Errorf("budget %d, pays %v: Pay(%d) succeeded after a refusal", tc.budget, tc.pays, n)
				}
				if ok {
					paid += int64(n)
				} else {
					refused = true
				}
			}
			if paid != tc.paid || paid > tc.budget {
				t.Errorf("budget %d, pays %v: %d units granted, want %d", tc.budget, tc.pays, paid, tc.paid)
			}
			if a.Stop() != refused {
				t.Errorf("budget %d, pays %v: Stop = %v after refused = %v", tc.budget, tc.pays, a.Stop(), refused)
			}
			var s SearchStats
			a.Finish(&s)
			want := 0
			if refused {
				want = 1
			}
			if s.BudgetExhausted != want || s.Approximated != want {
				t.Errorf("budget %d, pays %v: flags %d/%d, want %d/%d", tc.budget, tc.pays, s.BudgetExhausted, s.Approximated, want, want)
			}
		}
	})

	t.Run("epsilon", func(t *testing.T) {
		neg := StartApprox(SearchOptions{Epsilon: -0.5})
		if got := neg.Shrink(2); got != 2 {
			t.Errorf("ε<0: Shrink(2) = %g, want 2", got)
		}
		var s SearchStats
		neg.Finish(&s)
		if s.Approximated != 0 {
			t.Error("ε<0 flagged the answer approximate")
		}
		a := StartApprox(SearchOptions{Epsilon: 1})
		if got := a.Shrink(2); got != 1 {
			t.Errorf("ε=1: Shrink(2) = %g, want 1", got)
		}
		a.Finish(&s)
		if s.Approximated != 1 {
			t.Error("ε=1 not flagged approximate")
		}
	})
}
