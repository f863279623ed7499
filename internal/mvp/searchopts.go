package mvp

import (
	"mvptree/internal/heapx"
	"mvptree/internal/index"
	"mvptree/internal/obs"
)

var _ index.Searcher[int] = (*Tree[int])(nil)

// Search is the unified query entry point (index.Searcher). A request
// with zero-valued SearchOptions runs the exact traversal and is
// byte-identical — results, order, distance counts, stats — to
// RangeWithStats / KNNWithStats. Epsilon, Budget or Patience switch to
// the approximate traversal below; see index.SearchOptions for the
// semantics of each knob.
//
// Approximate traversals do not consult the cross-query bound cascade
// or an external KNNBound — those are exact-mode machinery — and
// Workers is honored only on exact range queries.
func (t *Tree[T]) Search(req index.Query[T]) index.Result[T] {
	if req.K > 0 {
		if !req.Opts.Approximate() {
			nb, s := t.knnBound(req.Point, req.K, req.Opts.Bound)
			return index.Result[T]{Neighbors: nb, Stats: s}
		}
		return t.knnApprox(req.Point, req.K, req.Opts)
	}
	if !req.Opts.Approximate() {
		if req.Opts.Workers > 1 {
			out, s := t.rangeParallel(req.Point, req.Radius, req.Opts.Workers)
			return index.Result[T]{Items: out, Stats: s}
		}
		out, s := t.RangeWithStats(req.Point, req.Radius)
		return index.Result[T]{Items: out, Stats: s}
	}
	return t.rangeApprox(req.Point, req.Radius, req.Opts)
}

// rangeApprox is the (1+ε)-approximate / budgeted range traversal: the
// same descent as rangeNode but every prune and filter decision tests
// the shrunken radius rp = r/(1+ε) while acceptance keeps the full r.
// Every reported item is therefore a true answer (distance ≤ r) and
// every item within rp is guaranteed reported; items in (rp, r] may be
// skipped — that slack is where the distance savings come from. The
// budget is debited before each computation, so SearchStats.Distances()
// equals the Counter delta even when the traversal stops mid-leaf.
func (t *Tree[T]) rangeApprox(q T, r float64, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindRange)
	var s SearchStats
	if r < 0 || t.root == nil {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	a := index.StartApprox(o)
	qpath := make([]float64, t.p)
	qlo := make([]float64, t.p)
	qhi := make([]float64, t.p)
	var out []T
	t.rangeNodeApprox(t.root, q, r, a.Shrink(r), 0, qpath, qlo, qhi, &a, &out, &s)
	a.Finish(&s)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Items: out, Stats: s}
}

func (t *Tree[T]) rangeNodeApprox(n *node[T], q T, r, rp float64, plen int, qpath, qlo, qhi []float64, a *index.Approx, out *[]T, s *SearchStats) {
	if n == nil || a.Stop() {
		return
	}
	s.NodesVisited++
	t.TraceNode(n.isLeaf())
	if n.isLeaf() {
		t.rangeLeafApprox(n, q, r, rp, plen, qlo, qhi, a, out, s)
		return
	}
	if !a.Pay(2) {
		return
	}
	// The kernel bounds are the exact path's (r + cutMax): an abandoned
	// value and the true value land on the same side of every rp-window
	// test below because rp ≤ r, so shrinking the prune radius never
	// invalidates the abandonment certificate.
	var d1, d2 float64
	if plen >= t.p {
		d1 = t.dist.DistanceUpTo(q, n.sv1, r+n.cut1Max)
		d2 = t.dist.DistanceUpTo(q, n.sv2, r+n.cut2Max)
	} else {
		d1 = t.dist.Distance(q, n.sv1)
		d2 = t.dist.Distance(q, n.sv2)
	}
	s.VantagePoints += 2
	t.TraceDistance(2)
	if d1 <= r {
		*out = append(*out, n.sv1)
	}
	if d2 <= r {
		*out = append(*out, n.sv2)
	}
	if plen < t.p {
		qpath[plen], qlo[plen], qhi[plen] = d1, d1-rp, d1+rp
		plen++
		if plen < t.p {
			qpath[plen], qlo[plen], qhi[plen] = d2, d2-rp, d2+rp
			plen++
		}
	}
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
			t.rangeNodeApprox(c, q, r, rp, plen, qpath, qlo, qhi, a, out, s)
			if a.Stop() {
				return
			}
		}
	}
}

func (t *Tree[T]) rangeLeafApprox(n *node[T], q T, r, rp float64, plen int, qlo, qhi []float64, a *index.Approx, out *[]T, s *SearchStats) {
	s.LeavesVisited++
	if !n.hasSV1 || !a.Pay(1) {
		return
	}
	d1 := t.dist.DistanceUpTo(q, n.sv1, r+n.maxD1)
	s.VantagePoints++
	t.TraceDistance(1)
	if d1 <= r {
		*out = append(*out, n.sv1)
	}
	var d2 float64
	if n.hasSV2 {
		if !a.Pay(1) {
			return
		}
		d2 = t.dist.DistanceUpTo(q, n.sv2, r+n.maxD2)
		s.VantagePoints++
		t.TraceDistance(1)
		if d2 <= r {
			*out = append(*out, n.sv2)
		}
	}
	d1lo, d1hi := d1-rp, d1+rp
	d2lo, d2hi := d2-rp, d2+rp
	var filteredD, filteredPath, computed, cand int
items:
	for i := range n.items {
		cand++
		if x := n.d1[i]; x < d1lo || x > d1hi {
			filteredD++
			continue
		}
		if n.hasSV2 {
			if x := n.d2[i]; x < d2lo || x > d2hi {
				filteredD++
				continue
			}
		}
		path := n.path(i)
		if len(path) > plen {
			path = path[:plen]
		}
		for l, pd := range path {
			if pd < qlo[l] || pd > qhi[l] {
				filteredPath++
				continue items
			}
		}
		if !a.Pay(1) {
			cand-- // not considered: the budget stopped the scan first
			break
		}
		computed++
		if t.dist.DistanceUpTo(q, n.items[i], r) <= r {
			*out = append(*out, n.items[i])
		}
	}
	s.Candidates += cand
	s.FilteredByD += filteredD
	s.FilteredByPath += filteredPath
	s.Computed += computed
	if filteredD > 0 {
		t.TracePrune(obs.FilterD, filteredD)
	}
	if filteredPath > 0 {
		t.TracePrune(obs.FilterPath, filteredPath)
	}
	if computed > 0 {
		t.TraceDistance(computed)
	}
}

// knnApprox is the (1+ε)-approximate / budgeted / early-terminating
// kNN traversal: best-first like KNNWithStats, but subtrees and leaf
// candidates are discarded once their lower bound reaches τ/(1+ε)
// (each returned neighbor distance is within (1+ε) of the true i-th
// nearest), the budget is debited before every computation (anytime:
// the heap always holds the best candidates seen so far), and patience
// stops the search after the configured number of consecutive leaves
// that fail to tighten τ.
func (t *Tree[T]) knnApprox(q T, k int, o index.SearchOptions) index.Result[T] {
	span := t.StartQuery(obs.KindKNN)
	var s SearchStats
	if k <= 0 || t.root == nil {
		span.Done(&s)
		return index.Result[T]{Stats: s}
	}
	a := index.StartApprox(o)
	best := heapx.NewKBest[T](k)
	type pending struct {
		n     *node[T]
		qpath []float64
	}
	var queue heapx.NodeQueue[pending]
	queue.PushNode(pending{t.root, make([]float64, 0, t.p)}, 0)
	for !a.Stop() {
		pn, bound, ok := queue.PopNode()
		if !ok {
			break
		}
		tau := best.Threshold()
		if bound >= a.Shrink(tau) {
			break
		}
		n, qpath := pn.n, pn.qpath
		s.NodesVisited++
		t.TraceNode(n.isLeaf())
		if n.isLeaf() {
			s.LeavesVisited++
			t.knnLeafApprox(n, q, qpath, best, &a, &s)
			a.LeafDone(best.Threshold() < tau, best.Full())
			continue
		}
		if !a.Pay(2) {
			break
		}
		var d1, d2 float64
		if len(qpath) >= t.p {
			d1 = t.dist.DistanceUpTo(q, n.sv1, tau+n.cut1Max)
			d2 = t.dist.DistanceUpTo(q, n.sv2, tau+n.cut2Max)
		} else {
			d1 = t.dist.Distance(q, n.sv1)
			d2 = t.dist.Distance(q, n.sv2)
		}
		if d1 <= tau+n.cut1Max {
			best.Push(n.sv1, d1)
		}
		if d2 <= tau+n.cut2Max {
			best.Push(n.sv2, d2)
		}
		s.VantagePoints += 2
		t.TraceDistance(2)
		if len(qpath) < t.p {
			ext := make([]float64, len(qpath), t.p)
			copy(ext, qpath)
			ext = append(ext, d1)
			if len(ext) < t.p {
				ext = append(ext, d2)
			}
			qpath = ext
		}
		for g, row := range n.children {
			lo1, hi1 := shellBounds(n.cut1, g)
			lb1 := intervalGap(d1, lo1, hi1)
			if gb := max(lb1, bound); gb >= a.Shrink(best.Threshold()) {
				s.ShellsPruned += len(row)
				t.TracePrune(obs.FilterShell, len(row))
				continue
			}
			for h, c := range row {
				if c == nil {
					continue
				}
				lo2, hi2 := shellBounds(n.cut2[g], h)
				lb := max(bound, lb1, intervalGap(d2, lo2, hi2))
				if lb < a.Shrink(best.Threshold()) {
					queue.PushNode(pending{c, qpath}, lb)
				} else {
					s.ShellsPruned++
					t.TracePrune(obs.FilterShell, 1)
				}
			}
		}
	}
	out := best.Sorted()
	a.Finish(&s)
	s.Results = len(out)
	span.Done(&s)
	return index.Result[T]{Neighbors: out, Stats: s}
}

func (t *Tree[T]) knnLeafApprox(n *node[T], q T, qpath []float64, best *heapx.KBest[T], a *index.Approx, s *SearchStats) {
	if !n.hasSV1 || !a.Pay(1) {
		return
	}
	b1 := best.Threshold() + n.maxD1
	d1 := t.dist.DistanceUpTo(q, n.sv1, b1)
	s.VantagePoints++
	t.TraceDistance(1)
	if d1 <= b1 {
		best.Push(n.sv1, d1)
	}
	var d2 float64
	if n.hasSV2 {
		if !a.Pay(1) {
			return
		}
		b2 := best.Threshold() + n.maxD2
		d2 = t.dist.DistanceUpTo(q, n.sv2, b2)
		s.VantagePoints++
		t.TraceDistance(1)
		if d2 <= b2 {
			best.Push(n.sv2, d2)
		}
	}
	var filteredD, filteredPath, computed, cand int
	for i := range n.items {
		cand++
		lbD := abs(d1 - n.d1[i])
		if n.hasSV2 {
			if b := abs(d2 - n.d2[i]); b > lbD {
				lbD = b
			}
		}
		tauA := a.Shrink(best.Threshold())
		if lbD >= tauA {
			filteredD++
			continue
		}
		lb := lbD
		path := n.path(i)
		if len(path) > len(qpath) {
			path = path[:len(qpath)]
		}
		for l, pd := range path {
			if b := abs(qpath[l] - pd); b > lb {
				lb = b
			}
		}
		if lb >= tauA {
			filteredPath++
			continue
		}
		if !a.Pay(1) {
			cand--
			break
		}
		computed++
		cb := best.Threshold()
		if d := t.dist.DistanceUpTo(q, n.items[i], cb); d <= cb {
			best.Push(n.items[i], d)
		}
	}
	s.Candidates += cand
	s.FilteredByD += filteredD
	s.FilteredByPath += filteredPath
	s.Computed += computed
	if filteredD > 0 {
		t.TracePrune(obs.FilterD, filteredD)
	}
	if filteredPath > 0 {
		t.TracePrune(obs.FilterPath, filteredPath)
	}
	if computed > 0 {
		t.TraceDistance(computed)
	}
}
