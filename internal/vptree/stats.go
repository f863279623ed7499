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

// knnScratch is the pooled best-first traversal state, so steady-state
// KNN allocates nothing but the result slice. Range queries borrow it
// too when the quantized pre-filter is armed (its per-query Prepared
// table lives here).
type knnScratch[T any] struct {
	best  *heapx.KBest[T]
	queue heapx.NodeQueue[*node[T]]
	// Quantized pre-filter state, re-armed per query by prepareQuant
	// (quantOn guards staleness across pool reuse); quantPruned tallies
	// the query's skipped exact evaluations for the Observer.
	qprep       quant.Prepared
	quantOn     bool
	quantPruned int
}

func (t *Tree[T]) getScratch() *knnScratch[T] {
	if v := t.scratch.Get(); v != nil {
		return v.(*knnScratch[T])
	}
	return &knnScratch[T]{}
}

func (t *Tree[T]) putScratch(sc *knnScratch[T]) {
	sc.quantOn = false
	sc.queue.Reset()
	if sc.best != nil {
		sc.best.Reset(1) // clears retained neighbors; re-armed per query
	}
	t.scratch.Put(sc)
}

// RangeWithStats is Range plus the per-query breakdown. It is the only
// range traversal implementation — Range delegates here.
//
// Both distance roles are threshold-only, so both use the metric's
// early-abandoning fast path when one is attached: leaf candidates only
// need membership (bound r), and a vantage distance certified past
// r+cutMax prunes every bounded shell and visits the unbounded
// outermost one — exactly what the exact distance would do. Results,
// distance counts and stats are identical with or without the fast path.
func (t *Tree[T]) RangeWithStats(q T, r float64) ([]T, SearchStats) {
	span := t.StartQuery(obs.KindRange)
	var s SearchStats
	if r < 0 {
		span.Done(&s)
		return nil, s
	}
	var out []T
	var cc *cascade.Cache
	if t.cas != nil {
		cc = t.cas.Get()
	}
	// The range traversal only needs scratch for the quantized
	// pre-filter's per-query state; without it the path stays
	// scratch-free as before.
	var sc *knnScratch[T]
	if t.qset != nil {
		sc = t.getScratch()
		t.prepareQuant(sc, q)
	}
	t.rangeNodeCas(t.root, q, r, cc, sc, &out, &s)
	if t.cas != nil {
		t.cas.Put(cc)
	}
	if sc != nil {
		t.finishQuant(sc)
		t.putScratch(sc)
	}
	s.Results = len(out)
	span.Done(&s)
	return out, s
}

// rangeNodeStats is the uncascaded, unquantized traversal, kept as the
// entry point for the intra-query parallel search (whose workers
// cannot share a single-owner cascade cache or prepared filter state).
func (t *Tree[T]) rangeNodeStats(n *node[T], q T, r float64, out *[]T, s *SearchStats) {
	t.rangeNodeCas(n, q, r, nil, nil, out, s)
}

func (t *Tree[T]) rangeNodeCas(n *node[T], q T, r float64, cc *cascade.Cache, sc *knnScratch[T], out *[]T, s *SearchStats) {
	if n == nil {
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
		// registered vantage distances exceeds r cannot be a result.
		kernel := t.dist.Kernel()
		// Quantized pre-filter state (quantize.go): a pruned candidate
		// still joins computed — the skip stands in for an abandoned
		// kernel call — so every stat and counter below is unchanged.
		useQuant := sc != nil && sc.quantOn && n.qcodes != nil
		var qset *quant.Set
		var qprep *quant.Prepared
		if useQuant {
			qset, qprep = t.qset, &sc.qprep
		}
		if cc != nil && cc.Registered() > 0 {
			cas, base := t.cas, n.casBase
			filtered, filteredQuant, computed := 0, 0, 0
			for i, it := range n.items {
				if cas.LowerBound(cc, base+int32(i)) > r {
					filtered++
					continue
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
			s.Candidates += len(n.items)
			s.Computed += computed
			s.FilteredByCascade += filtered
			if sc != nil {
				sc.quantPruned += filteredQuant
			}
			if filtered > 0 {
				t.TracePrune(obs.FilterCascade, filtered)
			}
			if filteredQuant > 0 {
				t.TracePrune(obs.FilterQuantized, filteredQuant)
			}
			if computed > 0 {
				t.TraceDistance(computed)
			}
			return
		}
		filteredQuant := 0
		for i, it := range n.items {
			if useQuant && qset.PruneAt(qprep, n.qcodes, i, r) {
				filteredQuant++
				continue
			}
			if kernel(q, it, r) <= r {
				*out = append(*out, it)
			}
		}
		t.dist.Add(int64(len(n.items)))
		s.Candidates += len(n.items)
		s.Computed += len(n.items)
		if sc != nil {
			sc.quantPruned += filteredQuant
		}
		if filteredQuant > 0 {
			t.TracePrune(obs.FilterQuantized, filteredQuant)
		}
		if len(n.items) > 0 {
			t.TraceDistance(len(n.items))
		}
		return
	}
	// A vantage point stamped as a cascade pivot is computed exactly
	// while the cache still wants registrations (an exact value is a
	// valid bounded-kernel result, so every shell decision is
	// unchanged) and doubles as a global filter bound.
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
		if d+r >= lo && d-r <= hi {
			t.rangeNodeCas(c, q, r, cc, sc, out, s)
		} else {
			s.ShellsPruned++
			t.TracePrune(obs.FilterShell, 1)
		}
	}
}

// KNNWithStats is KNN plus the per-query breakdown. It is the only
// best-first kNN traversal implementation — KNN delegates here. The
// abandonment bounds mirror RangeWithStats with the live k-th best
// distance τ in place of r (+Inf until the heap fills), and the heap
// and node queue come from the tree's pool.
func (t *Tree[T]) KNNWithStats(q T, k int) ([]index.Neighbor[T], SearchStats) {
	return t.knnBound(q, k, nil)
}

// knnBound is KNNWithStats with an optional external pruning bound
// (index.KNNBound, reached through Search with Opts.Bound), the hook
// the sharded index uses to share the shrinking k-th-best distance
// across shards. With ext == nil it is
// exactly KNNWithStats. With a bound attached, pruning and abandonment
// consult τ′ = min(τ_local, ext.Tau()), the search publishes its own
// tightening threshold through ext.Publish, and candidates certified
// to exceed the external bound are discarded (they cannot make the
// caller's merged global top-k), so the returned list may be shorter
// than k.
func (t *Tree[T]) knnBound(q T, k int, ext index.KNNBound) ([]index.Neighbor[T], SearchStats) {
	span := t.StartQuery(obs.KindKNN)
	var s SearchStats
	if k <= 0 || t.root == nil {
		span.Done(&s)
		return nil, s
	}
	sc := t.getScratch()
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
	for {
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
		if bound >= tau {
			break
		}
		s.NodesVisited++
		t.TraceNode(n.leaf)
		if n.leaf {
			s.LeavesVisited++
			// Uncounted kernel + one batched settle, as in the range
			// scan. A reported distance above the bound it was computed
			// with may understate the true value and is globally
			// discardable, so only in-bound values enter the heap (with
			// ext == nil the heap would reject out-of-bound values
			// anyway).
			kernel := t.dist.Kernel()
			extTau := math.Inf(1)
			if ext != nil {
				extTau = ext.Tau()
			}
			// The cascade lower bound filters candidates the heap would
			// reject anyway: a bound with !Accepts (or past the external
			// τ) proves the true distance would be rejected too.
			// Quantized pre-filter state (quantize.go): a pruned
			// candidate still joins computed, standing in for an
			// abandoned kernel call.
			useQuant := sc.quantOn && n.qcodes != nil
			var qset *quant.Set
			var qprep *quant.Prepared
			if useQuant {
				qset, qprep = t.qset, &sc.qprep
			}
			if cc != nil && cc.Registered() > 0 {
				cas, base := t.cas, n.casBase
				filtered, filteredQuant, computed := 0, 0, 0
				for i, it := range n.items {
					if clb := cas.LowerBound(cc, base+int32(i)); !best.Accepts(clb) || clb >= extTau {
						filtered++
						continue
					}
					computed++
					cb := min(best.Threshold(), extTau)
					if useQuant && qset.PruneAt(qprep, n.qcodes, i, cb) {
						filteredQuant++
						continue
					}
					if d := kernel(q, it, cb); d <= cb {
						best.Push(it, d)
					}
				}
				if ext != nil {
					ext.Publish(best.Threshold())
				}
				t.dist.Add(int64(computed))
				s.Candidates += len(n.items)
				s.Computed += computed
				s.FilteredByCascade += filtered
				sc.quantPruned += filteredQuant
				if filtered > 0 {
					t.TracePrune(obs.FilterCascade, filtered)
				}
				if filteredQuant > 0 {
					t.TracePrune(obs.FilterQuantized, filteredQuant)
				}
				if computed > 0 {
					t.TraceDistance(computed)
				}
				continue
			}
			filteredQuant := 0
			for i, it := range n.items {
				cb := min(best.Threshold(), extTau)
				if useQuant && qset.PruneAt(qprep, n.qcodes, i, cb) {
					filteredQuant++
					continue
				}
				if d := kernel(q, it, cb); d <= cb {
					best.Push(it, d)
				}
			}
			if ext != nil {
				ext.Publish(best.Threshold())
			}
			t.dist.Add(int64(len(n.items)))
			s.Candidates += len(n.items)
			s.Computed += len(n.items)
			sc.quantPruned += filteredQuant
			if filteredQuant > 0 {
				t.TracePrune(obs.FilterQuantized, filteredQuant)
			}
			if len(n.items) > 0 {
				t.TraceDistance(len(n.items))
			}
			continue
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
			if best.Accepts(lb) && lb < extTau {
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
	t.putScratch(sc)
	s.Results = len(out)
	span.Done(&s)
	return out, s
}
