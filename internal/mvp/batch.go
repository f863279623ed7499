package mvp

// Shared-traversal batch execution. SearchBatch answers a group of
// queries by descending the tree once for the whole group, so each
// node's arenas are read once while they are in cache for every member
// that reaches them. Each member is a range query of its own, opened and
// closed by rangeSearch's own steps (startRange, finishRange) on its own
// pooled queryScratch. What the group shares is the descent: each
// vantage point it meets — an internal node's, a leaf's, and the points
// of an item-less leaf — is measured against each member in turn
// through the Counter's one bounded kernel (metric.Counter.Kernel), and
// the node's count is settled once for the group. At a leaf with items
// each member then runs rangeLeaf's own candidate loop, scanLeaf, in
// turn. Every per-query result, order, SearchStats and counter delta is
// byte-identical to Search at every batch size; batching changes memory
// traffic, never answers.
//
// Why that equivalence holds:
//
//   - Exact range is a DFS whose per-node decisions for one query
//     depend only on (q, r) and the query's own PATH windows, so a
//     shared DFS with per-query active lists visits, per query, exactly
//     the sequential node set in the same (g ascending, h ascending)
//     order, and appends in the sequential order.
//   - Each member's vantage distances are the same kernel call, in the
//     same (query, point) orientation and under the same bound, as
//     Search makes, so no traversal decision can differ.
//
// Queries the shared traversal does not batch — kNN (best-first pops
// diverge per query, so there is no traversal to share) and approximate
// modes (Epsilon/Budget) — are answered by per-query Search
// calls inside the same invocation, which is trivially byte-identical.

import (
	"math"

	"mvptree/internal/index"
)

var _ index.BatchSearcher[int] = (*Tree[int])(nil)

// batchScratch is the pooled working state of one SearchBatch call: a
// member per request, at the request's position in reqs; the members'
// distances to a leaf's points; and the stack-discipline arenas of the
// shared DFS — act holds the active members of every live recursion
// level (member indices, or positions for the g-shell sublists), dstack
// the matching per-node d1‖d2 values — so steady-state batches allocate
// nothing once capacities warm.
type batchScratch[T any] struct {
	members []member[T]
	dv      [2][]float64
	act     []int32
	dstack  []float64
}

// growF returns s at length n, reallocated (contents dropped) if short.
func growF[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]E, n)
}

func growTo(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]float64, n, 2*n)
	copy(ns, s)
	return ns
}

// SearchBatch answers reqs[i] into results[i] with one shared traversal
// per query group (index.BatchSearcher). It panics unless len(results)
// == len(reqs). Shareable requests (index.Query.Shareable: exact range
// queries) share one DFS and everything else goes to per-query Search
// within the same call; every results[i] is byte-identical to
// Search(reqs[i]).
//
// SearchBatch is safe to call concurrently with itself and with Search;
// like Search, per-query counter attribution requires the per-Result
// Stats rather than Counter deltas when calls overlap.
func (t *Tree[T]) SearchBatch(reqs []index.Query[T], results []index.Result[T]) {
	if len(reqs) != len(results) {
		panic("mvp: SearchBatch requires len(results) == len(reqs)")
	}
	if len(reqs) == 0 {
		return
	}
	if len(reqs) == 1 {
		// A group of one shares nothing; the per-query path is the
		// reference the batch is pinned against, so delegating is
		// identical by definition and skips the group scaffolding.
		results[0] = t.Search(reqs[0])
		return
	}
	bs, _ := t.bscratch.Get().(*batchScratch[T])
	if bs == nil {
		bs = &batchScratch[T]{}
	}
	bs.members = growF(bs.members, len(reqs))
	act := bs.act[:0]
	for i := range reqs {
		req, m := &reqs[i], &bs.members[i]
		switch {
		case !req.Shareable():
			results[i] = t.Search(*req)
		case t.startRange(m, req.Point, req.Radius, req.Opts):
			act = append(act, int32(i))
		default:
			results[i] = t.finishRange(m)
		}
	}
	bs.act = act
	t.rangeBatchNode(0, act, 0, bs)
	for _, j := range act {
		results[j] = t.finishRange(&bs.members[j])
	}
	// Drop every reference the scratch took from the caller (query
	// objects, result slices) so pooling never pins them.
	clear(bs.members)
	bs.act, bs.dstack = bs.act[:0], bs.dstack[:0]
	t.bscratch.Put(bs)
}

// rangeBatchNode is rangeNode for a group: act holds the members whose
// query balls can still reach n. plen is uniform across the group — it
// is a function of tree position, not of the query.
func (t *Tree[T]) rangeBatchNode(ni int32, act []int32, plen int, bs *batchScratch[T]) {
	if len(act) == 0 {
		return
	}
	n, ms := &t.nodes[ni], bs.members
	for _, j := range act {
		ms[j].s.NodesVisited++
	}
	if n.isLeaf() {
		t.rangeBatchLeaf(ni, act, bs)
		return
	}

	// Per-node d1‖d2 values live on the dstack so sibling recursion
	// cannot clobber them.
	na := len(act)
	dBase := len(bs.dstack)
	bs.dstack = growTo(bs.dstack, dBase+2*na)
	d1v := bs.dstack[dBase : dBase+na]
	d2v := bs.dstack[dBase+na : dBase+2*na]

	// The vantage phases replicate rangeNode exactly, one pass over the
	// group per vantage point (vantageGroup); without a second one d2v
	// stays the zeros rangeNode's d2 is.
	exact, sv := plen < t.p, t.vantages(ni)
	cut1, cutMax, sh := t.inner(n)
	t.vantageGroup(sv[0], exact, cutMax[0], act, d1v, ms)
	if t.v == 2 {
		t.vantageGroup(sv[1], exact, cutMax[1], act, d2v, ms)
	} else {
		clear(d2v)
	}
	t.dist.Add(int64(t.v * na))

	for i, j := range act {
		m := &ms[j]
		m.s.VantagePoints += t.v
		if d1v[i] <= m.r {
			m.out = append(m.out, sv[0])
		}
		if t.v == 2 && d2v[i] <= m.r {
			m.out = append(m.out, sv[1])
		}
	}
	// PATH windows meet stored codes: slack wider than the shells'.
	for _, dv := range [][]float64{d1v, d2v}[:t.v] {
		if plen < t.p {
			for i, j := range act {
				m := &ms[j]
				w := m.rp + t.slack
				m.sc.qlo[plen], m.sc.qhi[plen] = t.window(dv[i]-w, dv[i]+w)
			}
			plen++
		}
	}

	// Shell visiting order is g ascending then h ascending — each
	// query's node visit order is exactly its sequential DFS order. The
	// g sublist stores positions into act (so d1v/d2v stay addressable);
	// the recursion windows store members. Stats mirror rangeNode: a
	// pruned g shell charges len(row) (nil children included), the
	// inner loop skips nil children before the d2 window check.
	for g := 0; g <= len(cut1); g++ {
		row, cut2 := sh.next()
		lo1, hi1 := shellBounds(cut1, g)
		gBase := len(bs.act)
		for i, j := range act {
			m := &ms[j]
			if d1v[i]+m.rp < lo1 || d1v[i]-m.rp > hi1 {
				m.s.ShellsPruned += len(row)
				continue
			}
			bs.act = append(bs.act, int32(i))
		}
		gPos := bs.act[gBase:]
		if len(gPos) > 0 {
			for h, c := range row {
				if c == noChild {
					continue
				}
				lo2, hi2 := shellBounds(cut2, h)
				hBase := len(bs.act)
				for _, pi := range gPos {
					j := act[pi]
					m := &ms[j]
					if d2v[pi]+m.rp < lo2 || d2v[pi]-m.rp > hi2 {
						m.s.ShellsPruned++
						continue
					}
					bs.act = append(bs.act, j)
				}
				t.rangeBatchNode(c, bs.act[hBase:], plen, bs)
				bs.act = bs.act[:hBase]
			}
		}
		bs.act = bs.act[:gBase]
	}
	bs.dstack = bs.dstack[:dBase]
}

// vantageGroup is vantageDistance for a group: the vantage point sv
// against each member's query through the uncounted bounded kernel.
// While the query PATH is filling every distance is exact; afterwards
// each query abandons past r+cutMax. The caller settles the count.
func (t *Tree[T]) vantageGroup(sv T, exact bool, cutMax float64, act []int32, dv []float64, ms []member[T]) {
	k, bound := t.dist.Kernel(), math.Inf(1)
	for i, j := range act {
		m := &ms[j]
		if !exact {
			bound = m.r + cutMax
		}
		dv[i] = k(m.q, sv, bound)
	}
}

// rangeBatchLeaf is rangeLeaf, or rangeBare, for a group: each of the
// leaf's points is measured against each member, and then each member
// scans the leaf's items with scanLeaf, the candidate loop of every
// range and kNN query.
func (t *Tree[T]) rangeBatchLeaf(ni int32, act []int32, bs *batchScratch[T]) {
	n, ms := &t.nodes[ni], bs.members
	// A leaf with items abandons its vantage points past r+maxD, as
	// rangeLeaf does; an item-less leaf measures its points up to r, as
	// rangeBare does.
	var over [2]float64
	if n.cnt > 0 {
		over = t.maxD(n)
	}
	k := t.dist.Kernel()
	for v, pt := range t.points(ni) {
		dv := growF(bs.dv[v], len(act))
		bs.dv[v] = dv
		for i, j := range act {
			m := &ms[j]
			dv[i] = k(m.q, pt, m.r+over[v])
			m.s.VantagePoints++
			if dv[i] <= m.r {
				m.out = append(m.out, pt)
			}
		}
	}
	total := len(act) * int(n.svs)
	for i, j := range act {
		m := &ms[j]
		m.s.LeavesVisited++
		if n.cnt == 0 {
			continue
		}
		var d2 float64 // rangeLeaf's zero without a second vantage point
		if n.hasSV2() {
			d2 = bs.dv[1][i]
		}
		total += t.scan(ni, m.q, m.r, m.rp, bs.dv[0][i], d2, nil, m.sc, &m.out, &m.s)
	}
	t.dist.Add(int64(total))
}
