package mvp

import (
	"math"

	"mvptree/internal/cascade"
	"mvptree/internal/index"
	"mvptree/internal/obs"
)

// SearchStats breaks a range search down into the paper's filtering
// stages, making Observation 2 (the power of the pre-computed
// distances) directly measurable per query. It is the shared
// index.SearchStats; the alias preserves existing call sites.
type SearchStats = index.SearchStats

var _ index.Searcher[int] = (*Tree[int])(nil)

// Search is the tree's one query implementation (index.Searcher): a
// single range traversal and a single best-first kNN traversal, each
// threaded with the request's index.Approx. Zero-valued SearchOptions
// are the exact query — Shrink(r) is r, Pay always succeeds, Stop never
// fires — and Epsilon, Budget and Patience only change the number in
// the pruning rule, never the rule: every prune test compares against
// the shrunken threshold, every acceptance test against the full one,
// and Pay precedes every distance computation. The cascade, the
// quantized pre-filter, Opts.Bound and the pooled scratch therefore
// serve every query, approximate or not. Opts.Workers is a sharded
// fan-out knob and means nothing to a single tree.
func (t *Tree[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		return t.knn(req.Point, req.K, req.Opts)
	}
	return t.rangeSearch(req.Point, req.Radius, req.Opts)
}

// Range returns every indexed item within distance r of q, implementing
// the paper's similarity-search algorithm (§4.3) generalized to m
// partitions per vantage point. While descending, the query's own
// distances to the first p vantage points are recorded as filter windows
// (qlo/qhi) and used at the leaves to filter points through their stored
// PATH arrays before any real distance computation.
//
// Distance computations whose outcome is only ever compared against a
// threshold go through the metric's early-abandoning fast path when one
// is attached (metric.Counter.DistanceUpTo): candidate scans abandon at
// the radius, leaf vantage points at radius+maxD, and internal vantage
// points — once the query PATH is full, so no abandoned value can leak
// into it — at radius+cutMax. Every bound is chosen so an abandoned
// kernel forces exactly the decisions the exact kernel would have made;
// results, distance counts and per-query stats are identical either way.
func (t *Tree[T]) Range(q T, r float64) []T {
	return t.Search(index.RangeQuery(q, r)).Items
}

// RangeWithStats is Range plus a per-query breakdown of the filtering
// stages.
func (t *Tree[T]) RangeWithStats(q T, r float64) ([]T, SearchStats) {
	res := t.Search(index.RangeQuery(q, r))
	return res.Items, res.Stats
}

func (t *Tree[T]) rangeSearch(q T, r float64, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindRange)
	var s SearchStats
	if r < 0 || t.root == nil {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	var out []T
	sc := t.getScratch(o)
	t.prepareQuant(sc, q)
	var cc *cascade.Cache
	if t.cas != nil {
		cc = t.cas.Get()
	}
	t.rangeNode(t.root, q, r, sc.ap.Shrink(r), 0, sc, cc, &out, &s)
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
func (t *Tree[T]) rangeNode(n *node[T], q T, r, rp float64, plen int, sc *queryScratch[T], cc *cascade.Cache, out *[]T, s *SearchStats) {
	a := &sc.ap
	if n == nil || a.Stop() {
		return
	}
	s.NodesVisited++
	t.TraceNode(n.isLeaf())
	if n.isLeaf() {
		s.LeavesVisited++
		if n.cnt == 0 {
			t.rangeBare(n, q, r, rp, a, cc, out, s)
		} else {
			t.rangeLeaf(n, q, r, rp, plen, sc, cc, out, s)
		}
		return
	}
	if !a.Pay(t.v) {
		return
	}

	// Step 3.1: one distance computation per vantage point serves every
	// child shell (this is the mvp-tree's first saving over the vp-tree).
	// While the query PATH is still filling, the distances must be exact
	// because they are recorded in it; once it is full they are only
	// compared against shell boundaries ≤ cutMax and the radius, so the
	// kernel may abandon past r+cutMax without changing any decision
	// (rp ≤ r, so an abandoned value and the true one also land on the
	// same side of every rp-window test).
	exact, w := plen < t.p, rp+t.slack // PATH windows meet stored codes: slack wider than the shells'
	d1 := t.vantageDistance(q, n.sv1, n.cas1, exact, r+n.cut1Max, cc)
	if d1 <= r {
		*out = append(*out, n.sv1)
	}
	if plen < t.p {
		sc.qlo[plen], sc.qhi[plen] = t.window(d1-w, d1+w)
		plen++
	}
	// Without a second vantage point d2 stays 0, inside the one
	// sub-shell [0, +Inf] each shell then has.
	var d2 float64
	if n.hasSV2 {
		d2 = t.vantageDistance(q, n.sv2, n.cas2, exact, r+n.cut2Max, cc)
		if d2 <= r {
			*out = append(*out, n.sv2)
		}
		if plen < t.p {
			sc.qlo[plen], sc.qhi[plen] = t.window(d2-w, d2+w)
			plen++
		}
	}
	s.VantagePoints += t.v
	t.TraceDistance(t.v)

	// Steps 3.2/3.3 generalized: visit shell (g, h) only if the query
	// ball intersects both its sv1 shell and its sv2 sub-shell.
	for g, row := range n.children {
		lo1, hi1 := shellBounds(n.cut1, g)
		if d1+rp < lo1 || d1-rp > hi1 {
			s.ShellsPruned += len(row)
			t.TracePrune(obs.FilterShell, len(row))
			continue
		}
		for h, c := range row {
			if c == nil {
				continue
			}
			lo2, hi2 := shellBounds(n.cut2[g], h)
			if d2+rp < lo2 || d2-rp > hi2 {
				s.ShellsPruned++
				t.TracePrune(obs.FilterShell, 1)
				continue
			}
			t.rangeNode(c, q, r, rp, plen, sc, cc, out, s)
			if a.Stop() {
				return
			}
		}
	}
}

// vantageDistance is the distance from q to an internal node's vantage
// point sv: exact when the caller records it (a PATH still filling) or
// when sv is stamped as a cascade pivot and the query's cache still wants
// registrations — an exact value is a valid bounded-kernel result, so
// every decision is unchanged, and the distance doubles as a global
// filter bound — and otherwise abandoned past bound.
func (t *Tree[T]) vantageDistance(q, sv T, stamp int32, exact bool, bound float64, cc *cascade.Cache) float64 {
	register := cc != nil && stamp != 0 && cc.Wants()
	if !exact && !register {
		return t.dist.DistanceUpTo(q, sv, bound)
	}
	d := t.dist.Distance(q, sv)
	if register {
		cc.Register(stamp-1, d)
	}
	return d
}

// rangeLeaf implements step 2 of the search algorithm: filter each leaf
// point through its exact distances to the leaf vantage points (D1, D2)
// and through its PATH prefix — windows of half-width rp+slack, turned
// into the codes they hold once per leaf so the scan compares integers —
// computing the real distance only for survivors, and only up to r,
// since membership is all that matters.
func (t *Tree[T]) rangeLeaf(n *node[T], q T, r, rp float64, plen int, sc *queryScratch[T], cc *cascade.Cache, out *[]T, s *SearchStats) {
	a := &sc.ap
	if !n.hasSV1 || !a.Pay(1) {
		return
	}
	// Every distance in a leaf — the two vantage points and the
	// surviving candidates — is threshold-only, so all of them go
	// through the uncounted kernel and the whole batch is settled on the
	// counter once at the end (totals match per-call accounting).
	kernel := t.dist.Kernel()
	// A vantage distance certified to exceed r+maxD guarantees every
	// stored distance fails the |d−D| ≤ r window, so the kernel may
	// abandon there: the same points get filtered, just cheaper. A
	// stamped cascade pivot is computed exactly instead (bound +Inf) and
	// registered; decisions are unchanged.
	var d1 float64
	if cc != nil && n.cas1 != 0 && cc.Wants() {
		d1 = kernel(q, n.sv1, math.Inf(1))
		cc.Register(n.cas1-1, d1)
	} else {
		d1 = kernel(q, n.sv1, r+n.maxD1)
	}
	s.VantagePoints++
	t.TraceDistance(1)
	if d1 <= r {
		*out = append(*out, n.sv1)
	}
	vantages := 1
	var d2 float64
	if n.hasSV2 {
		if !a.Pay(1) {
			t.dist.Add(1)
			return
		}
		if cc != nil && n.cas2 != 0 && cc.Wants() {
			d2 = kernel(q, n.sv2, math.Inf(1))
			cc.Register(n.cas2-1, d2)
		} else {
			d2 = kernel(q, n.sv2, r+n.maxD2)
		}
		vantages = 2
		s.VantagePoints++
		t.TraceDistance(1)
		if d2 <= r {
			*out = append(*out, n.sv2)
		}
	}
	// The candidate loop is the hottest code in the tree: hoist the
	// filter windows, slice headers and the budget test, keep the stage
	// tallies in locals, and report stats and trace events once per leaf
	// (the same batching rangeNode applies to shell pruning — totals are
	// identical, only the event granularity coarsens).
	w := rp + t.slack
	d1lo, d1hi := t.window(d1-w, d1+w)
	d2lo, d2hi := t.window(d2-w, d2+w)
	items, rows, stride := t.leaf(n)
	hasSV2 := n.hasSV2
	// held == plen: both are min(p, v·depth) (Load checks the stream's).
	qlo := sc.qlo[:n.held]
	qhi := sc.qhi[:n.held]
	cas, base := t.cas, n.casBase
	useCas := cc != nil && cc.Registered() > 0
	// Quantized pre-filter state (quantize.go). A pruned candidate is
	// still counted in computed — the skip stands in for an abandoned
	// kernel call — so every stat and counter below is unchanged.
	useQuant := sc.quantOn && n.qcodes != nil
	qset, qprep, qcodes := t.qset, &sc.qprep, n.qcodes
	limited := sc.limited
	cand := len(items)
	var filteredD, filteredPath, filteredCascade, filteredQuant, computed int
items:
	for i := range items {
		// |d(Q,SV) − d(Si,SV)| > rp ⟹ d(Q,Si) > rp by the triangle
		// inequality; likewise for every retained PATH entry. The D2
		// window only applies when the leaf actually has a second
		// vantage point (a single-vantage leaf stores no D2 distances,
		// and d2 would be a meaningless zero).
		o := i * stride
		if x := rows[o]; x < d1lo || x > d1hi {
			filteredD++
			continue
		}
		if hasSV2 {
			if x := rows[o+1]; x < d2lo || x > d2hi {
				filteredD++
				continue
			}
		}
		// Ranging over the window slice lets the compiler drop the
		// path[l] bounds check.
		path := rows[o+2:][:len(qlo)]
		for l, lo := range qlo {
			if pd := path[l]; pd < lo || pd > qhi[l] {
				filteredPath++
				continue items
			}
		}
		// Last, cheapest-to-skip filter: the cascade lower bound over
		// the vantage distances this query registered on its way down.
		// It only ever skips candidates whose true distance provably
		// exceeds rp, so nothing within rp is lost.
		if useCas {
			if lb := cas.LowerBound(cc, base+int32(i)); lb > rp {
				filteredCascade++
				continue
			}
		}
		if limited && !a.Pay(1) {
			cand = i // not considered: the budget stopped the scan first
			break
		}
		computed++
		// The quantized lower bound certifies d > r from the companion
		// representation alone; the exact kernel would have returned a
		// value > r (abandoning), so skipping it changes nothing — the
		// candidate already joined computed above.
		if useQuant && qset.PruneAt(qprep, qcodes, i, r) {
			filteredQuant++
			continue
		}
		if kernel(q, items[i], r) <= r {
			*out = append(*out, items[i])
		}
	}
	t.dist.Add(int64(vantages + computed))
	s.Candidates += cand
	s.FilteredByD += filteredD
	s.FilteredByPath += filteredPath
	s.FilteredByCascade += filteredCascade
	s.Computed += computed
	sc.quantPruned += filteredQuant
	if filteredD > 0 {
		t.TracePrune(obs.FilterD, filteredD)
	}
	if filteredPath > 0 {
		t.TracePrune(obs.FilterPath, filteredPath)
	}
	if filteredCascade > 0 {
		t.TracePrune(obs.FilterCascade, filteredCascade)
	}
	if filteredQuant > 0 {
		t.TracePrune(obs.FilterQuantized, filteredQuant)
	}
	if computed > 0 {
		t.TraceDistance(computed)
	}
}

// rangeBare is rangeLeaf for a leaf without items, which is every leaf
// of a classic vp-tree. Its one or two points are vantage points with
// nothing to filter, so they are candidates like any leaf item: measured
// up to r, unless the cascade — which numbers them as it does items
// (EnableCascade) — already puts them past rp.
func (t *Tree[T]) rangeBare(n *node[T], q T, r, rp float64, a *index.Approx, cc *cascade.Cache, out *[]T, s *SearchStats) {
	kernel := t.dist.Kernel()
	useCas := cc != nil && cc.Registered() > 0
	paid := 0
	for i := 0; i < 2; i++ {
		pt, ok := n.point(i)
		if !ok {
			break
		}
		if useCas && t.cas.LowerBound(cc, n.casBase+int32(i)) > rp {
			s.Candidates++
			s.FilteredByCascade++
			t.TracePrune(obs.FilterCascade, 1)
			continue
		}
		if !a.Pay(1) {
			break
		}
		paid++
		t.TraceDistance(1)
		if kernel(q, *pt, r) <= r {
			*out = append(*out, *pt)
		}
	}
	t.dist.Add(int64(paid))
	s.VantagePoints += paid
}
