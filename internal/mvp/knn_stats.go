package mvp

import (
	"math"
	"slices"

	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/obs"
)

// KNNWithStats is KNN plus the same per-query filtering breakdown that
// RangeWithStats reports: how many leaf candidates the stored D1/D2
// distances excluded on their own, how many additionally needed a PATH
// entry, and how many real distance computations remained.
// (Not through Search, which reads k <= 0 as a range request.)
func (t *Tree[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], SearchStats) {
	res := t.knn(q, k, index.SearchOptions{})
	return res.Neighbors, res.Stats
}

// knn is the tree's one best-first kNN traversal, reached through
// Search. The traversal state (node queue, k-best heap, query-PATH
// arena) is pooled on the tree, and every threshold-only distance
// computation goes through the metric's early-abandoning fast path with
// τ — the current k-th best distance, +Inf until the heap fills — in
// the role the radius plays for Range. Steady state allocates nothing
// but the result slice, and results, distance counts and stats are
// identical to the exact-kernel traversal.
//
// The approximation knobs only move the number in the pruning rule:
// subtrees and leaf candidates are discarded once their lower bound
// reaches τ/(1+ε) (so each returned distance is within (1+ε) of the
// true i-th nearest) while the heap keeps accepting against the full
// τ; and the budget is debited before every computation (anytime: the
// heap always holds the best candidates seen so far). With zero options
// both are inert.
//
// o.Bound is an optional external pruning bound (index.KNNBound), the
// hook the sharded index uses to share the shrinking k-th-best distance
// across shards. With a bound attached, every pruning and abandonment
// decision consults τ′ = min(τ_local, ext.Tau()), the search publishes
// its own tightening threshold back through ext.Publish, and any
// candidate certified to exceed the external bound is discarded — it
// cannot belong to the global top-k the caller is assembling (ties
// exactly at the global k-th distance may be dropped, as the KNN
// contract permits). Consequently the returned list may be shorter
// than k; it always contains every indexed item whose distance is
// strictly below the external bound's final value, k best at most.
func (t *Tree[T]) knn(q T, k int, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindKNN)
	var s SearchStats
	if k <= 0 || len(t.nodes) == 0 {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	sc := t.getScratch(o)
	a, ext := &sc.ap, o.Bound
	sc.quantOn = t.prepareQuant(&sc.qprep, q)
	if sc.best == nil {
		sc.best = heapx.NewKBest[T](k, t.size)
	} else {
		sc.best.Reset(k, t.size)
	}
	best, queue := sc.best, &sc.queue
	nb := nearest[T]{best: best, ext: ext}
	t.payPivots(q, o, sc, &s)
	queue.PushNode(pendingRef{}, 0)
	for !a.Stop() {
		pn, bound, ok := queue.PopNode()
		if !ok {
			break
		}
		// τ is read once per node: the bounds below stay valid as the
		// heap tightens because τ only ever decreases. The external
		// bound joins here — τ′ = min(τ_local, ext.Tau()) — so a
		// tighter cross-shard bound prunes exactly like a tighter heap.
		nb.extTau = math.Inf(1)
		if ext != nil {
			nb.extTau = ext.Tau()
		}
		tau := nb.tau()
		if bound >= a.Shrink(tau) {
			break
		}
		i, n := pn.n, &t.nodes[pn.n]
		s.NodesVisited++
		if n.isLeaf() {
			s.LeavesVisited++
			if n.cnt == 0 {
				t.rangeBare(i, q, tau, &nb, sc, nil, &s)
			} else {
				nb.qpath = sc.arena[pn.off : pn.off+pn.plen]
				t.rangeLeaf(i, q, tau, 0, &nb, sc, nil, &s)
			}
			continue
		}
		if !a.Pay(t.v) {
			break
		}
		// While the query PATH is filling the distances are exact; once
		// it is full they are only compared against shell boundaries and
		// τ′, and abandoning past τ′+cutMax prunes exactly the shells the
		// exact kernel would (vantageDistance).
		// A reported distance above the bound it was computed with may
		// understate the true value, and above the bound it is also
		// globally discardable (≥ τ_local rejects locally; ≥ ext.Tau()
		// cannot make the caller's merged top-k), so only in-bound
		// values enter the heap. With ext == nil this is equivalent to
		// the unconditional push: an out-of-bound value is ≥ τ_local
		// and the heap would reject it.
		exact := int(pn.plen) < t.p
		cut1, cutMax, sh := t.inner(n)
		var d [2]float64 // d2 is 0 without a second vantage point: inside the one sub-shell
		for j := range t.v {
			sv := t.point(i, j)
			d[j] = t.vantageDistance(q, sv, exact, tau+cutMax[j])
			if d[j] <= tau+cutMax[j] && t.keeps(t.vpSlot(i, j)) {
				best.Push(sv, d[j])
			}
		}
		d1, d2 := d[0], d[1]
		s.VantagePoints += t.v
		nb.publish()
		if ext != nil {
			nb.extTau = ext.Tau()
		}
		off, plen := pn.off, pn.plen
		if int(plen) < t.p {
			// Extend the query PATH in the arena: append the parent
			// window, then the new exact distances. Children reference
			// the new window by offset, so arena growth cannot
			// invalidate them.
			noff := int32(len(sc.arena))
			sc.arena = append(sc.arena, sc.arena[off:off+plen]...)
			sc.arena = append(sc.arena, d1)
			if t.v == 2 && int(plen)+1 < t.p {
				sc.arena = append(sc.arena, d2)
			}
			off, plen = noff, int32(len(sc.arena))-noff
		}
		// No push happens below, so the prune threshold — the shrunken
		// τ′ — is fixed for the whole child loop.
		tauP := a.Shrink(nb.tau())
		for g := 0; g <= len(cut1); g++ {
			row, cut2 := sh.next()
			lo1, hi1 := shellBounds(cut1, g)
			lb1 := intervalGap(d1, lo1, hi1)
			if gb := max(lb1, bound); gb >= tauP {
				s.ShellsPruned += len(row)
				continue
			}
			for h, c := range row {
				if c == noChild {
					continue
				}
				lo2, hi2 := shellBounds(cut2, h)
				lb := max(bound, lb1, intervalGap(d2, lo2, hi2))
				if lb < tauP {
					queue.PushNode(pendingRef{n: c, off: off, plen: plen}, lb)
				} else {
					s.ShellsPruned++
				}
			}
		}
	}
	out := best.Sorted()
	a.Finish(&s)
	t.putScratch(sc)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Neighbors: out, Stats: s}
}

// nearest is what a kNN leaf visit carries beyond a range query's: the
// heap its survivors join, the external bound and its value as last read
// (when the node was taken off the queue), and the query PATH and vantage
// distances the leaf's windows are derived from, again whenever a push
// moves τ′.
type nearest[T any] struct {
	best   *heapx.KBest[T]
	ext    index.KNNBound
	extTau float64
	qpath  []float64
	d      [2]float64
}

// tau is τ′ = min(τ_local, ext.Tau()), the radius the leaf is searched
// with.
func (nb *nearest[T]) tau() float64 { return min(nb.best.Threshold(), nb.extTau) }

// push offers an item at distance d to the heap and returns τ′ after it.
func (nb *nearest[T]) push(item T, d float64) float64 {
	nb.best.Push(item, d)
	return nb.tau()
}

// publish offers the heap's threshold to the external bound; a range
// visit (nb nil) has nothing to publish.
func (nb *nearest[T]) publish() {
	if nb != nil && nb.ext != nil {
		nb.ext.Publish(nb.best.Threshold())
	}
}

// knnWindows derives a kNN leaf scan's code windows from tauP = τ′/(1+ε):
// D1's and D2's, returned, the PATH's into sc.qlo/qhi and the cascade's
// into sc.clo/chi. Each is the run of codes its column's float bound
// keeps (knnWindow; the leaf's columns narrowed to the arena the tree
// holds), and a NaN opens what it opened in the bound's max over the
// columns: a NaN d1 every column of the leaf's own, a NaN pivot distance
// every cascade column, any other NaN its own column. An idle filter
// (slack +Inf) keeps every code, even against a bound of +Inf.
func (t *Tree[T]) knnWindows(tauP float64, nb *nearest[T], sc *queryScratch[T]) (d1lo, d1hi, d2lo, d2hi uint16) {
	b := tauP + t.slack
	if math.IsInf(t.slack, 1) {
		b = math.NaN()
	}
	d1lo, d1hi = t.narrowed(knnWindow(nb.d[0], 0, b, t.step))
	if math.IsNaN(nb.d[0]) {
		b = math.NaN()
	}
	d2lo, d2hi = t.narrowed(knnWindow(nb.d[1], 0, b, t.step))
	for l, qd := range nb.qpath {
		sc.qlo[l], sc.qhi[l] = t.narrowed(knnWindow(qd, 0, b, t.step))
	}
	if slices.ContainsFunc(sc.cqd, math.IsNaN) {
		tauP = math.NaN()
	}
	for j, d := range sc.cqd {
		sc.clo[j], sc.chi[j] = knnWindow(d, t.cslack, tauP, t.cstep)
	}
	return d1lo, d1hi, d2lo, d2hi
}
