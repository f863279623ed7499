package vptree

import (
	"math"

	"mvptree/internal/cascade"
	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
)

// SearchStats breaks a vp-tree range search down by stage, the
// counterpart of the mvp-tree's instrumentation. It is the shared
// index.SearchStats (the alias preserves existing call sites). Note the
// structural difference the vp-tree exposes through it: with no stored
// leaf distances, FilteredByD and FilteredByPath stay zero, every leaf
// candidate costs a real distance computation (Computed == Candidates
// always), and every visited internal node costs one vantage-point
// computation.
type SearchStats = index.SearchStats

// queryScratch is the pooled per-query state: the best-first kNN heap
// and node queue, the query's approximation state, and the quantized
// pre-filter's Prepared table. Steady-state queries allocate nothing
// but the result slice.
type queryScratch[T any] struct {
	// ap is the query's approximation state, compiled from its
	// SearchOptions by getScratch (exact when they are zero). limited
	// caches "a distance budget is set" so the leaf scans test a local
	// before calling ap.Pay per candidate.
	ap      index.Approx
	limited bool
	best    *heapx.KBest[T]
	queue   heapx.NodeQueue[*node[T]]
	// Quantized pre-filter state, re-armed per query by prepareQuant
	// (quantOn guards staleness across pool reuse); quantPruned tallies
	// the query's skipped exact evaluations for the Observer.
	qprep       quant.Prepared
	quantOn     bool
	quantPruned int
}

func (t *Tree[T]) getScratch(o index.SearchOptions) *queryScratch[T] {
	var sc *queryScratch[T]
	if v := t.scratch.Get(); v != nil {
		sc = v.(*queryScratch[T])
	} else {
		sc = &queryScratch[T]{}
	}
	sc.ap = index.StartApprox(o)
	sc.limited = o.Budget > 0
	return sc
}

func (t *Tree[T]) putScratch(sc *queryScratch[T]) {
	sc.quantOn = false
	sc.queue.Reset()
	if sc.best != nil {
		sc.best.Reset(1) // clears retained neighbors; re-armed per query
	}
	t.scratch.Put(sc)
}

var _ index.Searcher[int] = (*Tree[int])(nil)

// Search is the tree's one query implementation (index.Searcher): a
// single range traversal and a single best-first kNN traversal, each
// threaded with the request's index.Approx. Zero-valued SearchOptions
// are the exact query; Epsilon, Budget and Patience only change the
// number in the pruning rule — prune tests compare against the
// shrunken threshold, acceptance tests against the full one, and Pay
// precedes every distance computation — so the cascade, the quantized
// pre-filter, Opts.Bound and the pooled scratch serve every query.
// Opts.Workers is a sharded fan-out knob and means nothing to a single
// tree.
func (t *Tree[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		return t.knn(req.Point, req.K, req.Opts)
	}
	return t.rangeSearch(req.Point, req.Radius, req.Opts)
}

// RangeWithStats is Range plus the per-query breakdown.
func (t *Tree[T]) RangeWithStats(q T, r float64) ([]T, SearchStats) {
	res := t.Search(index.RangeQuery(q, r))
	return res.Items, res.Stats
}

// rangeSearch is the only range traversal implementation.
//
// Both distance roles are threshold-only, so both use the metric's
// early-abandoning fast path when one is attached: leaf candidates only
// need membership (bound r), and a vantage distance certified past
// r+cutMax prunes every bounded shell and visits the unbounded
// outermost one — exactly what the exact distance would do. Results,
// distance counts and stats are identical with or without the fast path.
func (t *Tree[T]) rangeSearch(q T, r float64, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindRange)
	var s SearchStats
	if r < 0 {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	var out []T
	var cc *cascade.Cache
	if t.cas != nil {
		cc = t.cas.Get()
	}
	sc := t.getScratch(o)
	t.prepareQuant(sc, q)
	t.rangeNode(t.root, q, r, sc.ap.Shrink(r), cc, sc, &out, &s)
	if t.cas != nil {
		t.cas.Put(cc)
	}
	t.finishQuant(sc)
	sc.ap.Finish(&s)
	t.putScratch(sc)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Items: out, Stats: s}
}

// rangeNode descends with two radii: r decides membership and bounds
// the kernels, rp = r/(1+ε) (== r when exact) decides every prune, so
// each reported item is within r and nothing within rp is skipped.
func (t *Tree[T]) rangeNode(n *node[T], q T, r, rp float64, cc *cascade.Cache, sc *queryScratch[T], out *[]T, s *SearchStats) {
	a := &sc.ap
	if n == nil || a.Stop() {
		return
	}
	s.NodesVisited++
	t.TraceNode(n.leaf)
	if n.leaf {
		s.LeavesVisited++
		// Candidate distances go through the uncounted kernel and the
		// batch is settled once — the count matches per-call accounting.
		// The cascade lower bound is the vp-tree's only leaf filter (it
		// stores no leaf distances): a candidate whose bound over the
		// registered vantage distances exceeds rp cannot lie within rp.
		kernel := t.dist.Kernel()
		cas, base := t.cas, n.casBase
		useCas := cc != nil && cc.Registered() > 0
		// Quantized pre-filter state (quantize.go): a pruned candidate
		// still joins computed — the skip stands in for an abandoned
		// kernel call — so every stat and counter below is unchanged.
		useQuant := sc.quantOn && n.qcodes != nil
		qset, qprep := t.qset, &sc.qprep
		limited := sc.limited
		cand := len(n.items)
		filtered, filteredQuant, computed := 0, 0, 0
		for i, it := range n.items {
			if useCas && cas.LowerBound(cc, base+int32(i)) > rp {
				filtered++
				continue
			}
			if limited && !a.Pay(1) {
				cand = i // not considered: the budget stopped the scan first
				break
			}
			computed++
			if useQuant && qset.PruneAt(qprep, n.qcodes, i, r) {
				filteredQuant++
				continue
			}
			if kernel(q, it, r) <= r {
				*out = append(*out, it)
			}
		}
		t.dist.Add(int64(computed))
		s.Candidates += cand
		s.Computed += computed
		s.FilteredByCascade += filtered
		if filtered > 0 {
			t.TracePrune(obs.FilterCascade, filtered)
		}
		if filteredQuant > 0 {
			sc.quantPruned += filteredQuant
			t.TracePrune(obs.FilterQuantized, filteredQuant)
		}
		if computed > 0 {
			t.TraceDistance(computed)
		}
		return
	}
	if !a.Pay(1) {
		return
	}
	// A vantage point stamped as a cascade pivot is computed exactly
	// while the cache still wants registrations (an exact value is a
	// valid bounded-kernel result, so every shell decision is
	// unchanged) and doubles as a global filter bound. The kernel bound
	// stays r+cutMax under ε: an abandoned value and the true one land
	// on the same side of every rp-shell test because rp ≤ r.
	var d float64
	if cc != nil && n.cas != 0 && cc.Wants() {
		d = t.dist.Distance(q, n.vantage)
		cc.Register(n.cas-1, d)
	} else {
		d = t.dist.DistanceUpTo(q, n.vantage, r+n.cutMax)
	}
	s.VantagePoints++
	t.TraceDistance(1)
	if d <= r {
		*out = append(*out, n.vantage)
	}
	for g, c := range n.children {
		lo, hi := shellBounds(n.cutoffs, g)
		if d+rp >= lo && d-rp <= hi {
			t.rangeNode(c, q, r, rp, cc, sc, out, s)
			if a.Stop() {
				return
			}
		} else {
			s.ShellsPruned++
			t.TracePrune(obs.FilterShell, 1)
		}
	}
}

// KNNWithStats is KNN plus the per-query breakdown (not through
// Search, which reads k <= 0 as a range request).
func (t *Tree[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], SearchStats) {
	res := t.knn(q, k, index.SearchOptions{})
	return res.Neighbors, res.Stats
}

// knn is the only best-first kNN traversal implementation. The
// abandonment bounds mirror rangeSearch with the live k-th best
// distance τ in place of r (+Inf until the heap fills), and the heap
// and node queue come from the tree's pool. Under the approximation
// knobs subtrees and candidates are discarded once their lower bound
// reaches τ/(1+ε) while the heap keeps accepting against the full τ,
// the budget is debited before every computation, and patience stops
// the search after the configured number of consecutive leaves that
// fail to tighten τ.
//
// o.Bound is an optional external pruning bound (index.KNNBound), the
// hook the sharded index uses to share the shrinking k-th-best distance
// across shards. With a bound attached, pruning and abandonment consult
// τ′ = min(τ_local, ext.Tau()), the search publishes its own
// tightening threshold through ext.Publish, and candidates certified
// to exceed the external bound are discarded (they cannot make the
// caller's merged global top-k), so the returned list may be shorter
// than k.
func (t *Tree[T]) knn(q T, k int, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindKNN)
	var s SearchStats
	if k <= 0 || t.root == nil {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	sc := t.getScratch(o)
	a, ext := &sc.ap, o.Bound
	t.prepareQuant(sc, q)
	if sc.best == nil {
		sc.best = heapx.NewKBest[T](k)
	} else {
		sc.best.Reset(k)
	}
	best, queue := sc.best, &sc.queue
	var cc *cascade.Cache
	if t.cas != nil {
		cc = t.cas.Get()
	}
	queue.PushNode(t.root, 0)
	for !a.Stop() {
		n, bound, ok := queue.PopNode()
		if !ok {
			break
		}
		// τ′ = min(local threshold, external bound); the min-heap
		// guarantees nothing later can beat it.
		tau := best.Threshold()
		if ext != nil {
			if e := ext.Tau(); e < tau {
				tau = e
			}
		}
		if bound >= a.Shrink(tau) {
			break
		}
		s.NodesVisited++
		t.TraceNode(n.leaf)
		if n.leaf {
			s.LeavesVisited++
			t.knnLeaf(n, q, best, ext, cc, sc, &s)
			a.LeafDone(best.Threshold() < tau, best.Full())
			continue
		}
		if !a.Pay(1) {
			break
		}
		// Stamped cascade pivots are computed exactly while the cache
		// wants registrations; the push and shell decisions below are
		// unchanged (an exact value is a valid bounded result).
		vb := tau + n.cutMax
		var d float64
		if cc != nil && n.cas != 0 && cc.Wants() {
			d = t.dist.Distance(q, n.vantage)
			cc.Register(n.cas-1, d)
		} else {
			d = t.dist.DistanceUpTo(q, n.vantage, vb)
		}
		if d <= vb {
			best.Push(n.vantage, d)
		}
		s.VantagePoints++
		t.TraceDistance(1)
		extTau := math.Inf(1)
		if ext != nil {
			ext.Publish(best.Threshold())
			extTau = ext.Tau()
		}
		// No push happens below, so the prune threshold — the shrunken
		// τ′ — is fixed for the whole child loop.
		tauP := a.Shrink(min(best.Threshold(), extTau))
		for g, c := range n.children {
			if c == nil {
				continue
			}
			lo, hi := shellBounds(n.cutoffs, g)
			lb := 0.0
			if d < lo {
				lb = lo - d
			} else if d > hi {
				lb = d - hi
			}
			if lb < tauP {
				queue.PushNode(c, lb)
			} else {
				s.ShellsPruned++
				t.TracePrune(obs.FilterShell, 1)
			}
		}
	}
	out := best.Sorted()
	if t.cas != nil {
		t.cas.Put(cc)
	}
	t.finishQuant(sc)
	a.Finish(&s)
	t.putScratch(sc)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Neighbors: out, Stats: s}
}

// knnLeaf scans one leaf for knn. Candidates go through the uncounted
// kernel with one batched settle, as in the range scan. A reported
// distance above the bound it was computed with may understate the
// true value and is globally discardable, so only in-bound values
// enter the heap (with ext == nil the heap would reject out-of-bound
// values anyway). cb = τ′ is the acceptance bound and tauP = τ′/(1+ε)
// the prune bound; both move only when a push tightens the heap, so
// they are re-read there and nowhere else.
func (t *Tree[T]) knnLeaf(n *node[T], q T, best *heapx.KBest[T], ext index.KNNBound, cc *cascade.Cache, sc *queryScratch[T], s *SearchStats) {
	a := &sc.ap
	kernel := t.dist.Kernel()
	extTau := math.Inf(1)
	if ext != nil {
		extTau = ext.Tau()
	}
	// With ε = 0 the cascade lower bound filters candidates the heap
	// would reject anyway: a bound at or past τ′ proves the true
	// distance would be rejected too.
	cas, base := t.cas, n.casBase
	useCas := cc != nil && cc.Registered() > 0
	// Quantized pre-filter state (quantize.go): a pruned candidate
	// still joins computed, standing in for an abandoned kernel call.
	useQuant := sc.quantOn && n.qcodes != nil
	qset, qprep := t.qset, &sc.qprep
	limited := sc.limited
	cand := len(n.items)
	cb := min(best.Threshold(), extTau)
	tauP := a.Shrink(cb)
	filtered, filteredQuant, computed := 0, 0, 0
	for i, it := range n.items {
		if useCas && cas.LowerBound(cc, base+int32(i)) >= tauP {
			filtered++
			continue
		}
		if limited && !a.Pay(1) {
			cand = i // not considered: the budget stopped the scan first
			break
		}
		computed++
		if useQuant && qset.PruneAt(qprep, n.qcodes, i, cb) {
			filteredQuant++
			continue
		}
		if d := kernel(q, it, cb); d <= cb {
			best.Push(it, d)
			cb = min(best.Threshold(), extTau)
			tauP = a.Shrink(cb)
		}
	}
	if ext != nil {
		ext.Publish(best.Threshold())
	}
	t.dist.Add(int64(computed))
	s.Candidates += cand
	s.Computed += computed
	s.FilteredByCascade += filtered
	if filtered > 0 {
		t.TracePrune(obs.FilterCascade, filtered)
	}
	if filteredQuant > 0 {
		sc.quantPruned += filteredQuant
		t.TracePrune(obs.FilterQuantized, filteredQuant)
	}
	if computed > 0 {
		t.TraceDistance(computed)
	}
}
