package mvp

import (
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
// fires — and Epsilon and Budget only change the number in the
// pruning rule, never the rule: every prune test compares against
// the shrunken threshold, every acceptance test against the full one,
// and Pay precedes every distance computation. The cascade, the
// quantized pre-filter, Opts.Bound and the pooled scratch therefore
// serve every query, approximate or not.
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
	var m member[T]
	if t.startRange(&m, q, r, o) {
		t.rangeNode(0, q, r, m.rp, 0, m.sc, &m.out, &m.s)
	}
	return t.finishRange(&m)
}

// member is one range query from set-up to result: Search runs one
// through rangeNode, SearchBatch a group through one shared descent.
type member[T any] struct {
	q     T
	r, rp float64 // the radius and the pruning radius (Approx.Shrink)
	sc    *queryScratch[T]
	out   []T
	s     SearchStats
	span  obs.Span
}

// startRange opens m for the range query (q, r, o): its span and, unless
// the answer is empty without a traversal, its scratch, quantized state,
// pruning radius and the cascade's pivots and windows. It reports whether
// a traversal follows.
func (t *Tree[T]) startRange(m *member[T], q T, r float64, o index.SearchOptions) bool {
	*m = member[T]{q: q, r: r, span: t.StartQuery(obs.KindRange)}
	if r < 0 || len(t.nodes) == 0 {
		return false
	}
	sc := t.getScratch(o)
	sc.quantOn = t.prepareQuant(&sc.qprep, q)
	m.sc, m.rp = sc, sc.ap.Shrink(r)
	t.payPivots(q, o, sc, &m.s)
	t.cascadeWindows(sc, m.rp)
	return true
}

// finishRange closes m: it returns the scratch to the pool and reports
// the query's result to its span and the caller.
func (t *Tree[T]) finishRange(m *member[T]) index.Result[T] {
	if m.sc != nil {
		m.sc.ap.Finish(&m.s)
		t.putScratch(m.sc)
	}
	m.s.Results = len(m.out)
	m.span.Done(&m.s)
	return index.Result[T]{Items: m.out, Stats: m.s}
}

// rangeNode descends with two radii: r decides membership and bounds
// the kernels, rp = r/(1+ε) (== r when exact) decides every prune, so
// each reported item is within r and nothing within rp is skipped.
func (t *Tree[T]) rangeNode(i int32, q T, r, rp float64, plen int, sc *queryScratch[T], out *[]T, s *SearchStats) {
	a := &sc.ap
	if a.Stop() {
		return
	}
	n := &t.nodes[i]
	s.NodesVisited++
	if n.isLeaf() {
		s.LeavesVisited++
		if n.cnt == 0 {
			t.rangeBare(i, q, r, nil, sc, out, s)
		} else {
			t.rangeLeaf(i, q, r, rp, nil, sc, out, s)
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
	cut1, cutMax, sh := t.inner(n)
	// Without a second vantage point d2 stays 0, inside the one
	// sub-shell [0, +Inf] each shell then has.
	var d [2]float64
	for j := range t.v {
		sv := t.point(i, j)
		d[j] = t.vantageDistance(q, sv, exact, r+cutMax[j])
		if slot := t.vpSlot(i, j); d[j] <= r && t.keeps(slot) {
			t.accept(sc, out, sv, slot)
		}
		if plen < t.p {
			sc.qlo[plen], sc.qhi[plen] = t.window(d[j]-w, d[j]+w)
			plen++
		}
	}
	d1, d2 := d[0], d[1]
	s.VantagePoints += t.v

	// Steps 3.2/3.3 generalized: visit shell (g, h) only if the query
	// ball intersects both its sv1 shell and its sv2 sub-shell.
	for g := 0; g <= len(cut1); g++ {
		row, cut2 := sh.next()
		lo1, hi1 := shellBounds(cut1, g)
		if d1+rp < lo1 || d1-rp > hi1 {
			s.ShellsPruned += len(row)
			continue
		}
		for h, c := range row {
			if c == noChild {
				continue
			}
			lo2, hi2 := shellBounds(cut2, h)
			if d2+rp < lo2 || d2-rp > hi2 {
				s.ShellsPruned++
				continue
			}
			t.rangeNode(c, q, r, rp, plen, sc, out, s)
			if a.Stop() {
				return
			}
		}
	}
}

// vantageDistance is the distance from q to an internal node's vantage
// point sv: exact when the caller records it (a PATH still filling) and
// otherwise abandoned past bound.
func (t *Tree[T]) vantageDistance(q, sv T, exact bool, bound float64) float64 {
	if exact {
		return t.dist.Distance(q, sv)
	}
	return t.dist.DistanceUpTo(q, sv, bound)
}

// rangeLeaf implements step 2 of the search algorithm: filter each leaf
// point through its exact distances to the leaf vantage points (D1, D2)
// and through its PATH prefix — windows of half-width rp+slack, turned
// into the codes they hold once per leaf so the scan compares integers —
// computing the real distance only for survivors, and only up to r,
// since membership is all that matters.
//
// A kNN query visits its leaves here too, as a range query whose radius
// is τ′ and shrinks as the heap fills: nb carries the heap, and the leaf's
// windows are those of the kNN bound (knnWindows), derived again whenever
// a push moves τ′. Only acceptance differs by mode: range reports a point
// within r, kNN pushes one within the bound it was measured to.
func (t *Tree[T]) rangeLeaf(i int32, q T, r, rp float64, nb *nearest[T], sc *queryScratch[T], out *[]T, s *SearchStats) {
	a, n := &sc.ap, &t.nodes[i]
	// Every distance in a leaf — the two vantage points and the
	// surviving candidates — is threshold-only, so all of them go
	// through the uncounted kernel and the whole batch is settled on the
	// counter once at the end (totals match per-call accounting).
	kernel := t.dist.Kernel()
	// A vantage distance certified to exceed r+maxD guarantees every
	// stored distance fails the |d−D| ≤ r window, so the kernel may
	// abandon there: the same points get filtered, just cheaper.
	var d [2]float64
	maxD, vantages := t.maxD(n), int(n.svs)
	for j := range vantages {
		if !a.Pay(1) {
			t.dist.Add(int64(j))
			return
		}
		b, sv := r+maxD[j], t.point(i, j)
		d[j] = kernel(q, sv, b)
		s.VantagePoints++
		slot := t.vpSlot(i, j)
		if !t.keeps(slot) {
			continue
		}
		if nb == nil {
			if d[j] <= r {
				t.accept(sc, out, sv, slot)
			}
		} else if d[j] <= b {
			r = nb.push(sv, d[j])
		}
	}
	if nb != nil {
		rp, nb.d = a.Shrink(r), d
	}
	t.dist.Add(int64(vantages + t.scan(i, q, r, rp, d[0], d[1], nb, sc, out, s)))
	nb.publish()
}

// scan runs scanLeaf over the filter arena the tree holds.
func (t *Tree[T]) scan(ni int32, q T, r, rp, d1, d2 float64, nb *nearest[T], sc *queryScratch[T], out *[]T, s *SearchStats) int {
	switch {
	case t.nibbles != nil:
		return scanLeaf(t, t.nibbles, ni, q, r, rp, d1, d2, nb, sc, out, s)
	case t.narrow != nil:
		return scanLeaf(t, t.narrow, ni, q, r, rp, d1, d2, nb, sc, out, s)
	}
	return scanLeaf(t, t.filter, ni, q, r, rp, d1, d2, nb, sc, out, s)
}

// scanLeaf is the candidate loop of rangeLeaf, given the distances d1 and
// d2 from q to the leaf's vantage points, and returns how many candidates
// it computed for the caller to settle on the counter. It is the hottest
// code in the tree and a function of its own so that nothing outside it
// competes for its registers: it hoists the filter windows, slice headers
// and the budget test, keeps the stage tallies in locals, and adds them
// to the query's stats once per leaf. codes is the tree's filter arena,
// 16-bit, bytes or nibble rows; the windows are on its grid
// (Tree.narrowed), and a code is compared zero-extended. A nibble row is
// tested whole against the windows in lanes (rowMiss), every other arena
// column by column; only that skip loop differs.
func scanLeaf[T any, C cell](t *Tree[T], codes []C, ni int32, q T, r, rp, d1, d2 float64, nb *nearest[T], sc *queryScratch[T], out *[]T, s *SearchStats) int {
	n, kernel := &t.nodes[ni], t.dist.Kernel()
	hasSV2 := n.hasSV2()
	var d1lo, d1hi, d2lo, d2hi uint16
	if nb == nil {
		w := rp + t.slack
		d1lo, d1hi = t.window(d1-w, d1+w)
		d2lo, d2hi = t.window(d2-w, d2+w)
	} else {
		d1lo, d1hi, d2lo, d2hi = t.knnWindows(rp, nb, sc)
	}
	items := t.items.span(int(n.off), int(n.cnt))
	cnt := int(n.cnt)
	rows, stride := leafRows(codes, n)
	// held == plen: both are min(p, v·depth) (Load checks the stream's).
	qlo := sc.qlo[:n.held]
	qhi := sc.qhi[:n.held]
	nibbles := isRow[C]()
	var lo, hi uint64
	if nibbles {
		lo, hi = lanes(d1lo, d1hi, d2lo, d2hi, hasSV2, qlo, qhi)
	}
	// What only the rare stages read — the cascade's windows and codes, the
	// budget, the quantized codes — is fetched where they run, not held
	// across the loop: the loop keeps enough live without it.
	useCas := len(sc.clo) > 0
	useQuant := sc.quantOn && t.qcodes != nil
	var filteredD, filteredPath, filteredCascade, filteredQuant, computed int
	for i := 0; i < cnt; i++ {
		// |d(Q,SV) − d(Si,SV)| > rp ⟹ d(Q,Si) > rp by the triangle
		// inequality; likewise for every retained PATH entry. The D2
		// window only applies when the leaf actually has a second
		// vantage point (a single-vantage leaf stores no D2 distances,
		// and d2 would be a meaningless zero). The rows these windows
		// exclude are skipped in a loop of their own, which calls nothing
		// and so keeps what it reads in registers. A nibble row fails by
		// D when a D lane does, as the columns' order would count it.
	skip:
		for ; i < cnt; i++ {
			if nibbles {
				fail := rowMiss(uint32(rows[i]), lo, hi)
				if fail == 0 {
					break
				}
				byD := int((fail | fail>>32) >> 7 & 1) // D1's lane ends at bit 7, D2's at 39
				filteredD += byD
				filteredPath += 1 - byD
				continue
			}
			o := i * stride
			if x := uint16(rows[o]); x < d1lo || x > d1hi {
				filteredD++
				continue
			}
			if hasSV2 {
				if x := uint16(rows[o+1]); x < d2lo || x > d2hi {
					filteredD++
					continue
				}
			}
			// Ranging over the window slice lets the compiler drop the
			// path[l] bounds check.
			path := rows[o+2:][:len(qlo)]
			for l, lo := range qlo {
				if pd := uint16(path[l]); pd < lo || pd > qhi[l] {
					filteredPath++
					continue skip
				}
			}
			break
		}
		if i == cnt {
			break
		}
		// Last filter: the cascade's columns, PATH entries to the pivots
		// the query paid for up front, in windows of their own grid.
		if useCas && t.cascadeMiss(int(n.off)+i, sc.clo, sc.chi) {
			filteredCascade++
			continue
		}
		// A tombstoned item (Remove) is not a candidate: it is neither
		// measured nor counted.
		if !t.keeps(int(n.off) + i) {
			continue
		}
		if sc.limited && !sc.ap.Pay(1) {
			break // not considered: the budget stopped the scan first
		}
		computed++
		// The quantized lower bound certifies d > r from the companion
		// representation alone; the exact kernel would have returned a
		// value > r (abandoning), so skipping it changes nothing — the
		// candidate already joined computed above.
		if useQuant && t.qset.PruneAt(&sc.qprep, t.leafCodes(n), i, r) {
			filteredQuant++
			continue
		}
		it := items.at(i)
		if d := kernel(q, it, r); d <= r {
			if nb == nil {
				t.accept(sc, out, it, int(n.off)+i)
			} else if tau := nb.push(it, d); tau != r {
				r = tau
				d1lo, d1hi, d2lo, d2hi = t.knnWindows(sc.ap.Shrink(r), nb, sc)
				if nibbles {
					lo, hi = lanes(d1lo, d1hi, d2lo, d2hi, hasSV2, qlo, qhi)
				}
			}
		}
	}
	reportLeaf(s, filteredD, filteredPath, filteredCascade, filteredQuant, computed)
	return computed
}

// reportLeaf adds the stage tallies of one leaf scan to the query's stats.
// Every candidate the scan considered was filtered or computed, so they
// are the sum of the two.
func reportLeaf(s *SearchStats, byD, byPath, byCascade, byQuant, computed int) {
	s.Candidates += byD + byPath + byCascade + computed
	s.FilteredByD += byD
	s.FilteredByPath += byPath
	s.FilteredByCascade += byCascade
	s.FilteredByQuantized += byQuant
	s.Computed += computed
}

// rangeBare is rangeLeaf for a leaf without items, which is every leaf
// of a classic vp-tree. Its one or two points are vantage points with
// nothing to filter them by, so each is measured up to r — for kNN up to
// τ′ as it stands after the pushes before it.
func (t *Tree[T]) rangeBare(i int32, q T, r float64, nb *nearest[T], sc *queryScratch[T], out *[]T, s *SearchStats) {
	kernel := t.dist.Kernel()
	paid := 0
	for j := range int(t.nodes[i].svs) {
		if !sc.ap.Pay(1) {
			break
		}
		paid++
		pt := t.point(i, j)
		if d := kernel(q, pt, r); d <= r && t.keeps(t.vpSlot(i, j)) {
			if nb == nil {
				t.accept(sc, out, pt, t.vpSlot(i, j))
			} else {
				r = nb.push(pt, d)
			}
		}
	}
	nb.publish()
	t.dist.Add(int64(paid))
	s.VantagePoints += paid
}
