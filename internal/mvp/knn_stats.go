package mvp

import (
	"math"

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
		tau := best.Threshold()
		if ext != nil {
			if e := ext.Tau(); e < tau {
				tau = e
			}
		}
		if bound >= a.Shrink(tau) {
			break
		}
		i, n := pn.n, &t.nodes[pn.n]
		s.NodesVisited++
		if n.isLeaf() {
			s.LeavesVisited++
			if n.cnt == 0 {
				t.knnBare(i, q, best, ext, a, &s)
			} else {
				t.knnLeaf(i, q, sc.arena[pn.off:pn.off+pn.plen], best, ext, sc, &s)
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
		for j, sv := range t.vantages(i) {
			d[j] = t.vantageDistance(q, sv, exact, tau+cutMax[j])
			if d[j] <= tau+cutMax[j] {
				best.Push(sv, d[j])
			}
		}
		d1, d2 := d[0], d[1]
		s.VantagePoints += t.v
		extTau := math.Inf(1)
		if ext != nil {
			ext.Publish(best.Threshold())
			extTau = ext.Tau()
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
		tauP := a.Shrink(min(best.Threshold(), extTau))
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

// storedBound is what a lower bound computed from stored codes must
// reach to prune at tauP: the slack above it. Under an idle filter
// (slack +Inf) no bound may prune, not even one that is +Inf itself, so
// the answer is NaN, which nothing reaches.
func (t *Tree[T]) storedBound(tauP float64) float64 {
	if math.IsInf(t.slack, 1) {
		return math.NaN()
	}
	return tauP + t.slack
}

func (t *Tree[T]) knnLeaf(i int32, q T, qpath []float64, best *heapx.KBest[T], ext index.KNNBound, sc *queryScratch[T], s *SearchStats) {
	a, n := &sc.ap, &t.nodes[i]
	extTau := math.Inf(1)
	if ext != nil {
		extTau = ext.Tau()
	}
	// Every leaf distance is threshold-only: vantage points and
	// surviving candidates all go through the uncounted kernel and the
	// batch is settled on the counter once at the end.
	kernel := t.dist.Kernel()
	// Same bound shape as rangeLeaf with τ′ in place of r: a vantage
	// distance certified past τ′+maxD rejects the vantage point and
	// D-filters every item, in both the abandoned and the exact world.
	var d [2]float64
	maxD, vantages := t.maxD(n), int(n.svs)
	for j, sv := range t.points(i) {
		if !a.Pay(1) {
			t.dist.Add(int64(j))
			return
		}
		b := min(best.Threshold(), extTau) + maxD[j]
		if d[j] = kernel(q, sv, b); d[j] <= b {
			best.Push(sv, d[j])
		}
		s.VantagePoints++
	}
	computed := t.scanNearest(i, q, qpath, d[0], d[1], extTau, best, sc, s)
	if ext != nil {
		ext.Publish(best.Threshold())
	}
	t.dist.Add(int64(vantages + computed))
}

// scanNearest is the candidate loop of knnLeaf, given the distances d1 and
// d2 from q to the leaf's vantage points, and returns how many candidates
// it computed; a function of its own, with the rare stages' state fetched
// where they run, for scanLeaf's reason. Slice headers are hoisted, stage
// tallies kept in locals and added to the stats once per leaf. cb = τ′ is
// the acceptance bound, tauP = τ′/(1+ε) the prune
// bound, tauS the one for bounds from the stored codes (storedBound),
// which are decoded here: a kNN bound is a magnitude, not a window. All
// move only when a push tightens the heap.
func (t *Tree[T]) scanNearest(ni int32, q T, qpath []float64, d1, d2, extTau float64, best *heapx.KBest[T], sc *queryScratch[T], s *SearchStats) int {
	a, n, kernel := &sc.ap, &t.nodes[ni], t.dist.Kernel()
	hasSV2 := n.hasSV2()
	items, rows, stride := t.leaf(n)
	qpath = qpath[:n.held] // held == len(qpath): both are min(p, v·depth)
	useCas := len(sc.cqd) > 0
	// A candidate the quantized stage prunes still joins computed,
	// standing in for an abandoned kernel call (quantize.go).
	useQuant := sc.quantOn && t.qcodes != nil
	cand := len(items)
	cb := min(best.Threshold(), extTau)
	tauP := a.Shrink(cb)
	tauS := t.storedBound(tauP)
	var filteredD, filteredPath, filteredCascade, filteredQuant, computed int
	for i := range items {
		// The D1/D2 bound first; a PATH entry only gets credit when it
		// tightens the bound past the acceptance threshold on its own.
		o := i * stride
		lbD := abs(d1 - t.decode(rows[o]))
		if hasSV2 {
			if b := abs(d2 - t.decode(rows[o+1])); b > lbD {
				lbD = b
			}
		}
		if lbD >= tauS {
			filteredD++
			continue
		}
		lb := lbD
		path := rows[o+2:][:len(qpath)]
		for l, qd := range qpath {
			if b := abs(qd - t.decode(path[l])); b > lb {
				lb = b
			}
		}
		if lb >= tauS {
			filteredPath++
			continue
		}
		// Last filter: the cascade's bound over the pivot distances the
		// query paid for up front. With ε = 0 a bound the heap would
		// reject (or one past the external τ) proves the true distance
		// would be rejected too, so skipping the computation changes
		// nothing.
		if useCas && t.cascadeBound(int(n.off)+i, sc.cqd) >= tauP {
			filteredCascade++
			continue
		}
		if sc.limited && !a.Pay(1) {
			cand = i // not considered: the budget stopped the scan first
			break
		}
		computed++
		// The quantized lower bound certifies d > cb, so the kernel call
		// would abandon (> cb) and never push; skipping it changes no
		// heap state, stat or count (computed was charged above).
		if useQuant && t.qset.PruneAt(&sc.qprep, t.leafCodes(n), i, cb) {
			filteredQuant++
			continue
		}
		if d := kernel(q, items[i], cb); d <= cb {
			best.Push(items[i], d)
			cb = min(best.Threshold(), extTau)
			tauP = a.Shrink(cb)
			tauS = t.storedBound(tauP)
		}
	}
	reportLeaf(s, cand, filteredD, filteredPath, filteredCascade, filteredQuant, computed)
	return computed
}

// knnBare is knnLeaf for a leaf without items (see rangeBare): each of
// its points is measured up to τ′ and pushed when within it.
func (t *Tree[T]) knnBare(i int32, q T, best *heapx.KBest[T], ext index.KNNBound, a *index.Approx, s *SearchStats) {
	extTau := math.Inf(1)
	if ext != nil {
		extTau = ext.Tau()
	}
	kernel := t.dist.Kernel()
	paid := 0
	for _, pt := range t.points(i) {
		if !a.Pay(1) {
			break
		}
		paid++
		cb := min(best.Threshold(), extTau)
		if d := kernel(q, pt, cb); d <= cb {
			best.Push(pt, d)
		}
	}
	if ext != nil {
		ext.Publish(best.Threshold())
	}
	t.dist.Add(int64(paid))
	s.VantagePoints += paid
}
