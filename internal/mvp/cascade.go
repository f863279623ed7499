package mvp

import (
	"math"

	"mvptree/internal/build"
	"mvptree/internal/cascade"
	"mvptree/internal/index"
)

// EnableCascade arms the tree's bound cascade: c = opts.Pivots of the leaf
// items, far from one another (cascade.GreedySelect from the first item of
// the arena, so the choice depends on arena order alone and survives
// Save/Load), and every leaf item's distance to each of them in a companion
// to the leaf items, as qcodes is: item i's c codes at ccodes[i·c]. The
// codes are the leaf filter's (fixed.go) on a grid of the cascade's own —
// the pivots are outliers by construction, and their distances must not
// coarsen the tree's — with a slack of its own. Selecting the pivots
// measures exactly the columns, c × LeafItems distances on the tree's
// counter. Where the point arena holds pointers or a block (items.go), the
// selection is handed the leaf items as a []T of their own, which the
// armed tree keeps none of.
//
// Afterwards every Search pays its c pivot distances once, up front, and
// the leaf scans compare a candidate that passed D1/D2 and PATH against
// them before computing its distance: c more integer windows, for range
// and kNN alike. Results and their order are byte-identical with the
// cascade on or off; a query computes at most c distances more than the
// unarmed tree's, and where pruning pays, far fewer. A query whose Budget
// is below c is answered unarmed.
//
// A tree without leaf items — the classic vp-tree — is left uncascaded,
// silently: its points are all vantage points, computed on the way down.
// EnableCascade is not synchronized with in-flight queries: arm before
// serving. The columns are not serialized by Save; re-enable after Load.
func (t *Tree[T]) EnableCascade(opts cascade.Options) error {
	opts, err := opts.Resolve()
	if err != nil {
		return err
	}
	n := t.leafItems
	if n == 0 {
		return nil
	}
	b := build.Start(t.dist, build.Options{Workers: opts.Workers})
	pivots, rows := cascade.GreedySelect(b, t.items.first(n), min(opts.Pivots, n), 0)
	b.Finish()
	exp := minStepExp
	for _, row := range rows {
		exp = max(exp, stepExp(row))
	}
	c, step := len(pivots), math.Ldexp(1, exp)
	codes := make([]uint16, n*c)
	for i := range n {
		for j, row := range rows {
			codes[i*c+j] = encode(row[i], step)
		}
	}
	t.cpivots, t.ccodes, t.cstep, t.cslack = pivots, codes, step, slackOf(codes, step)
	return nil
}

// payPivots measures q to the cascade's pivots into sc.cqd, exactly and
// before anything else: all of them, counted as vantage points, or — the
// cascade is unarmed, or the query's budget does not reach that far — none.
// It sizes the windows sc.clo/chi to match, for the query to fill.
func (t *Tree[T]) payPivots(q T, o index.SearchOptions, sc *queryScratch[T], s *SearchStats) {
	c := len(t.cpivots)
	if o.Budget > 0 && o.Budget < int64(c) {
		c = 0
	}
	sc.cqd, sc.clo, sc.chi = growF(sc.cqd, c), growF(sc.clo, c), growF(sc.chi, c)
	if c == 0 {
		return
	}
	sc.ap.Pay(c)
	for j, pv := range t.cpivots {
		sc.cqd[j] = t.dist.Distance(q, pv)
	}
	s.VantagePoints += c
}

// cascadeWindows turns the pivot distances of a range query into the code
// windows sc.clo[j] ≤ c ≤ sc.chi[j] a candidate within rp must sit in.
// (kNN derives its own from τ′ at every leaf: knnWindows.)
func (t *Tree[T]) cascadeWindows(sc *queryScratch[T], rp float64) {
	w := rp + t.cslack
	for j, d := range sc.cqd {
		sc.clo[j], sc.chi[j] = window(d-w, d+w, t.cstep)
	}
}

// cascadeMiss reports whether the item at index i of the arena has a code
// outside the query's windows: it is then farther than rp.
func (t *Tree[T]) cascadeMiss(i int, lo, hi []uint16) bool {
	codes := t.ccodes[i*len(lo):][:len(lo)]
	for j, x := range codes {
		if x < lo[j] || x > hi[j] {
			return true
		}
	}
	return false
}
