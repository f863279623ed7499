package mvp

// Shared-traversal batch execution. SearchBatch answers a group of
// queries by descending the tree once for the whole group: each node's
// vantage distances are computed for all still-active queries with one
// blocked metric call (metric.Counter.BlockKernel), per-query prune
// state lives in pooled struct-of-arrays scratch, and each leaf arena
// is streamed once for the group. The batched paths replicate the
// sequential traversals' decisions exactly — every per-query result,
// order, SearchStats and counter delta is byte-identical to Search at
// every batch size; batching changes memory traffic, never answers.
//
// Why that equivalence holds:
//
//   - Exact range is a DFS whose per-node decisions for one query
//     depend only on (q, r) and the query's own PATH windows, so a
//     shared DFS with per-query active lists visits, per query, exactly
//     the sequential node set in the same (g ascending, h ascending)
//     order, and item-major leaf scans preserve each query's item
//     order and therefore its append order.
//   - The block kernels produce bit-identical values to the one-to-one
//     bounded kernels for every (query, point, bound) triple (see
//     metric.BlockDistanceFunc), so no traversal decision can differ.
//
// Queries the shared traversal does not batch — kNN (best-first pops
// diverge per query, so there is no traversal to share) and approximate
// modes (Epsilon/Budget/Patience) — are answered by per-query Search
// calls inside the same invocation, which is trivially byte-identical.

import (
	"mvptree/internal/index"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
)

var _ index.BatchSearcher[int] = (*Tree[int])(nil)

// batchScratch is the pooled working state of one SearchBatch call.
// Per-slot arrays are indexed by the query's position in reqs; shared
// gather buffers are valid only across one blocked kernel call; the
// act/dstack arenas follow stack discipline through the range DFS so
// steady-state batches allocate nothing once capacities warm.
type batchScratch[T any] struct {
	// Shared gather buffers for blocked vantage calls.
	pts    []T
	bounds []float64
	dv1    []float64
	dv2    []float64
	// Survivor gather buffers for item-major leaf scans.
	spts    []T
	sbounds []float64
	sdv     []float64
	sslots  []int32

	// Stack-discipline arenas for the shared range DFS: act holds the
	// active-query windows of every live recursion level (slot ids, or
	// positions for the g-shell sublists), dstack the matching per-node
	// d1‖d2 values.
	act    []int32
	dstack []float64

	// Per-slot query state.
	qs          []T
	rads        []float64
	stats       []SearchStats
	outs        [][]T
	spans       []obs.Span
	qpreps      []quant.Prepared
	quantOn     []bool
	quantPruned []int
	// qlo/qhi are B×p flat: slot j's PATH windows, as the codes they
	// hold (window), live at [j·p, (j+1)·p); clo/chi are B×c flat, its
	// cascade windows (payPivotsBatch).
	qlo, qhi []uint16
	clo, chi []uint16

	// Leaf-local per-slot D1/D2 windows, as codes too, and stage tallies
	// (leaves never recurse, so one set serves every leaf).
	wlo1, whi1, wlo2, whi2 []uint16
	fD, fP, fC, fQ, comp   []int

	// rangeLst lists the slots the shared DFS answers.
	rangeLst []int32
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

func (t *Tree[T]) getBatchScratch(b int) *batchScratch[T] {
	var bs *batchScratch[T]
	if v := t.bscratch.Get(); v != nil {
		bs = v.(*batchScratch[T])
	} else {
		bs = &batchScratch[T]{}
	}
	bs.reserve(b, t.p, len(t.cpivots))
	return bs
}

// reserve sizes every per-slot array for b slots; rangeLst restarts.
func (bs *batchScratch[T]) reserve(b, p, c int) {
	bs.qs = growF(bs.qs, b)
	bs.rads = growF(bs.rads, b)
	bs.stats = growF(bs.stats, b)
	bs.outs = growF(bs.outs, b)
	bs.spans = growF(bs.spans, b)
	bs.qpreps = growF(bs.qpreps, b)
	bs.quantOn = growF(bs.quantOn, b)
	bs.quantPruned = growF(bs.quantPruned, b)
	bs.wlo1 = growF(bs.wlo1, b)
	bs.whi1 = growF(bs.whi1, b)
	bs.wlo2 = growF(bs.wlo2, b)
	bs.whi2 = growF(bs.whi2, b)
	bs.fD = growF(bs.fD, b)
	bs.fP = growF(bs.fP, b)
	bs.fC = growF(bs.fC, b)
	bs.fQ = growF(bs.fQ, b)
	bs.comp = growF(bs.comp, b)
	bs.qlo = growF(bs.qlo, b*p)
	bs.qhi = growF(bs.qhi, b*p)
	bs.clo = growF(bs.clo, b*c)
	bs.chi = growF(bs.chi, b*c)
	bs.rangeLst = bs.rangeLst[:0]
}

// putBatchScratch clears every reference the scratch took from the
// caller (query objects, result slices) so pooling never pins them,
// then returns it to the pool.
func (t *Tree[T]) putBatchScratch(bs *batchScratch[T]) {
	var zero T
	for i := range bs.qs {
		bs.qs[i] = zero
		bs.outs[i] = nil
		bs.quantOn[i] = false
	}
	clear(bs.pts)
	bs.pts = bs.pts[:0]
	clear(bs.spts)
	bs.spts = bs.spts[:0]
	bs.act = bs.act[:0]
	bs.dstack = bs.dstack[:0]
	t.bscratch.Put(bs)
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
	bs := t.getBatchScratch(len(reqs))
	for i := range reqs {
		req := &reqs[i]
		if !req.Shareable() {
			results[i] = t.Search(*req)
			continue
		}
		bs.spans[i] = t.StartQuery(obs.KindRange)
		bs.stats[i] = SearchStats{}
		if req.Radius < 0 || len(t.nodes) == 0 {
			bs.spans[i].Done(&bs.stats[i])
			results[i] = index.Result[T]{Stats: bs.stats[i]}
			continue
		}
		bs.qs[i] = req.Point
		bs.rads[i] = req.Radius
		bs.quantOn[i], bs.quantPruned[i] = t.prepareQuant(&bs.qpreps[i], req.Point), 0
		bs.rangeLst = append(bs.rangeLst, int32(i))
	}
	if len(bs.rangeLst) > 0 {
		t.payPivotsBatch(bs.rangeLst, bs)
		t.rangeBatchNode(0, bs.rangeLst, 0, bs)
		for _, j := range bs.rangeLst {
			s := &bs.stats[j]
			t.ObserveQuantPruned(bs.quantPruned[j])
			s.Results = len(bs.outs[j])
			bs.spans[j].Done(s)
			results[j] = index.Result[T]{Items: bs.outs[j], Stats: *s}
			bs.outs[j] = nil // the result slice escapes to the caller
		}
	}
	t.putBatchScratch(bs)
}

// payPivotsBatch is payPivots and cascadeWindows for a group: one blocked
// call per pivot, every distance exact, into slot j's windows at
// clo/chi[j·c].
func (t *Tree[T]) payPivotsBatch(act []int32, bs *batchScratch[T]) {
	c := len(t.cpivots)
	if c == 0 {
		return
	}
	pts := bs.pts[:0]
	for _, j := range act {
		pts = append(pts, bs.qs[j])
		bs.stats[j].VantagePoints += c
		t.TraceDistance(c)
	}
	bs.pts = pts
	dv, blk := growF(bs.dv1, len(act)), t.dist.BlockKernel()
	bs.dv1 = dv
	for k, pv := range t.cpivots {
		blk(pv, pts, nil, dv)
		for i, j := range act {
			o, w := int(j)*c+k, bs.rads[j]+t.cslack
			bs.clo[o], bs.chi[o] = window(dv[i]-w, dv[i]+w, t.cstep)
		}
	}
	t.dist.Add(int64(c * len(act)))
}

// rangeBatchNode is rangeNode for a group: act holds the slots whose
// query balls can still reach n. plen is uniform across the group — it
// is a function of tree position, not of the query.
func (t *Tree[T]) rangeBatchNode(ni int32, act []int32, plen int, bs *batchScratch[T]) {
	if len(act) == 0 {
		return
	}
	n := &t.nodes[ni]
	leaf := n.isLeaf()
	for _, j := range act {
		bs.stats[j].NodesVisited++
		t.TraceNode(leaf)
	}
	if leaf {
		t.rangeBatchLeaf(ni, act, bs)
		return
	}

	na := len(act)
	pts := bs.pts[:0]
	for _, j := range act {
		pts = append(pts, bs.qs[j])
	}
	bs.pts = pts

	// Per-node d1‖d2 values live on the dstack so sibling recursion
	// cannot clobber them; the block kernels write into the windows
	// directly.
	dBase := len(bs.dstack)
	bs.dstack = growTo(bs.dstack, dBase+2*na)
	d1v := bs.dstack[dBase : dBase+na]
	d2v := bs.dstack[dBase+na : dBase+2*na]

	// The vantage phases replicate rangeNode exactly, one blocked call
	// per vantage point (vantageBlock); without a second one d2v stays
	// the zeros rangeNode's d2 is.
	exact, sv := plen < t.p, t.vantages(ni)
	cut1, cutMax, sh := t.inner(n)
	t.vantageBlock(int(ni)*t.v, exact, cutMax[0], act, d1v, bs)
	if t.v == 2 {
		t.vantageBlock(int(ni)*t.v+1, exact, cutMax[1], act, d2v, bs)
	} else {
		clear(d2v)
	}
	t.dist.Add(int64(t.v * na))

	for i, j := range act {
		s := &bs.stats[j]
		s.VantagePoints += t.v
		t.TraceDistance(t.v)
		r := bs.rads[j]
		if d1v[i] <= r {
			bs.outs[j] = append(bs.outs[j], sv[0])
		}
		if t.v == 2 && d2v[i] <= r {
			bs.outs[j] = append(bs.outs[j], sv[1])
		}
	}
	// PATH windows meet stored codes: slack wider than the shells'.
	for _, dv := range [][]float64{d1v, d2v}[:t.v] {
		if plen < t.p {
			for i, j := range act {
				o := int(j)*t.p + plen
				w := bs.rads[j] + t.slack
				bs.qlo[o], bs.qhi[o] = window(dv[i]-w, dv[i]+w, t.step)
			}
			plen++
		}
	}

	// Shell visiting order is g ascending then h ascending — each
	// query's node visit order is exactly its sequential DFS order. The
	// g sublist stores positions into act (so d1v/d2v stay addressable);
	// the recursion windows store slots. Stats mirror rangeNode: a
	// pruned g shell charges len(row) (nil children included), the
	// inner loop skips nil children before the d2 window check.
	for g := 0; g <= len(cut1); g++ {
		row, cut2 := sh.next()
		lo1, hi1 := shellBounds(cut1, g)
		gBase := len(bs.act)
		for i, j := range act {
			r := bs.rads[j]
			if d1v[i]+r < lo1 || d1v[i]-r > hi1 {
				bs.stats[j].ShellsPruned += len(row)
				t.TracePrune(obs.FilterShell, len(row))
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
					r := bs.rads[j]
					if d2v[pi]+r < lo2 || d2v[pi]-r > hi2 {
						bs.stats[j].ShellsPruned++
						t.TracePrune(obs.FilterShell, 1)
						continue
					}
					bs.act = append(bs.act, j)
				}
				hAct := bs.act[hBase:]
				if len(hAct) > 0 {
					t.rangeBatchNode(c, hAct, plen, bs)
				}
				bs.act = bs.act[:hBase]
			}
		}
		bs.act = bs.act[:gBase]
	}
	bs.dstack = bs.dstack[:dBase]
}

// vantageBlock is vantageDistance for a group, one blocked call on the
// vantage point in slot: while the query PATH is filling every distance
// is exact; afterwards each query abandons past r+cutMax.
func (t *Tree[T]) vantageBlock(slot int, exact bool, cutMax float64, act []int32, dv []float64, bs *batchScratch[T]) {
	var bounds []float64 // nil: every distance exact
	if !exact {
		bounds = growF(bs.bounds, len(act))
		bs.bounds = bounds
		for i, j := range act {
			bounds[i] = bs.rads[j] + cutMax
		}
	}
	t.dist.BlockKernel()(t.vps[slot], bs.pts, bounds, dv)
}

// rangeBatchLeaf is rangeLeaf for a group: the vantage points are
// evaluated with one blocked call each, then the leaf arena is streamed
// item-major — every still-interested query filters item i through its
// D1/D2 windows, PATH prefix, cascade and quantized bounds in the
// sequential order, and one blocked call evaluates the survivors.
func (t *Tree[T]) rangeBatchLeaf(ni int32, act []int32, bs *batchScratch[T]) {
	for _, j := range act {
		bs.stats[j].LeavesVisited++
	}
	n, sv := &t.nodes[ni], t.vantages(ni)
	if n.cnt == 0 {
		t.rangeBatchBare(ni, act, bs)
		return
	}
	blk := t.dist.BlockKernel()
	na := len(act)
	pts := bs.pts[:0]
	for _, j := range act {
		pts = append(pts, bs.qs[j])
	}
	bs.pts = pts
	bounds := growF(bs.bounds, na)
	bs.bounds = bounds
	dv1 := growF(bs.dv1, na)
	bs.dv1 = dv1
	dv2 := growF(bs.dv2, na)
	bs.dv2 = dv2

	// The leaf's vantage points, each with one blocked call, abandoned
	// past r+maxD.
	vantages, hasSV2, maxD := int(n.svs), n.hasSV2(), t.maxD(n)
	for v, dv := range [][]float64{dv1, dv2}[:vantages] {
		for i, j := range act {
			bounds[i] = bs.rads[j] + maxD[v]
		}
		blk(sv[v], pts, bounds, dv)
		for i, j := range act {
			s := &bs.stats[j]
			s.VantagePoints++
			t.TraceDistance(1)
			if dv[i] <= bs.rads[j] {
				bs.outs[j] = append(bs.outs[j], sv[v])
			}
		}
	}

	for i, j := range act {
		w := bs.rads[j] + t.slack
		bs.wlo1[j], bs.whi1[j] = window(dv1[i]-w, dv1[i]+w, t.step)
		bs.wlo2[j], bs.whi2[j] = window(dv2[i]-w, dv2[i]+w, t.step)
		bs.fD[j], bs.fP[j], bs.fC[j], bs.fQ[j], bs.comp[j] = 0, 0, 0, 0, 0
	}

	items, rows, stride := t.leaf(n)
	c := len(t.cpivots)
	qset, qcodes := t.qset, t.leafCodes(n)
	hasQuant := qcodes != nil
	p := t.p
	for i := range items {
		surv := bs.sslots[:0]
		spts := bs.spts[:0]
		sbounds := bs.sbounds[:0]
		row := rows[i*stride : (i+1)*stride]
		x1, x2, path := row[0], row[1], row[2:]
		for _, j := range act {
			if x1 < bs.wlo1[j] || x1 > bs.whi1[j] {
				bs.fD[j]++
				continue
			}
			if hasSV2 && (x2 < bs.wlo2[j] || x2 > bs.whi2[j]) {
				bs.fD[j]++
				continue
			}
			qbase := int(j) * p
			pathOK := true
			for l, pd := range path {
				if pd < bs.qlo[qbase+l] || pd > bs.qhi[qbase+l] {
					bs.fP[j]++
					pathOK = false
					break
				}
			}
			if !pathOK {
				continue
			}
			r := bs.rads[j]
			if cb := int(j) * c; c > 0 && t.cascadeMiss(int(n.off)+i, bs.clo[cb:cb+c], bs.chi[cb:cb+c]) {
				bs.fC[j]++
				continue
			}
			bs.comp[j]++
			if hasQuant && bs.quantOn[j] && qset.PruneAt(&bs.qpreps[j], qcodes, i, r) {
				bs.fQ[j]++
				continue
			}
			surv = append(surv, j)
			spts = append(spts, bs.qs[j])
			sbounds = append(sbounds, r)
		}
		bs.sslots, bs.spts, bs.sbounds = surv, spts, sbounds
		t.measureSurvivors(items[i], bs)
	}

	total := 0
	for _, j := range act {
		total += vantages + bs.comp[j]
		t.reportLeaf(&bs.stats[j], &bs.quantPruned[j], len(items), bs.fD[j], bs.fP[j], bs.fC[j], bs.fQ[j], bs.comp[j])
	}
	t.dist.Add(int64(total))
}

// measureSurvivors measures pt for the queries gathered in bs.sslots,
// each up to its radius (bs.spts, bs.sbounds run parallel), with one
// blocked call, and reports it to those it is within range of.
func (t *Tree[T]) measureSurvivors(pt T, bs *batchScratch[T]) {
	if len(bs.sslots) == 0 {
		return
	}
	sdv := growF(bs.sdv, len(bs.sslots))
	bs.sdv = sdv
	t.dist.BlockKernel()(pt, bs.spts, bs.sbounds, sdv)
	for k, j := range bs.sslots {
		if sdv[k] <= bs.sbounds[k] {
			bs.outs[j] = append(bs.outs[j], pt)
		}
	}
}

// rangeBatchBare is rangeBare for a group: each point of the item-less
// leaf is measured for every query, with one blocked call.
func (t *Tree[T]) rangeBatchBare(ni int32, act []int32, bs *batchScratch[T]) {
	surv, spts, sbounds := bs.sslots[:0], bs.spts[:0], bs.sbounds[:0]
	for _, j := range act {
		surv, spts, sbounds = append(surv, j), append(spts, bs.qs[j]), append(sbounds, bs.rads[j])
	}
	bs.sslots, bs.spts, bs.sbounds = surv, spts, sbounds
	for _, pt := range t.points(ni) {
		for _, j := range act {
			bs.stats[j].VantagePoints++
			t.TraceDistance(1)
		}
		t.measureSurvivors(pt, bs)
	}
	t.dist.Add(int64(len(t.points(ni)) * len(act)))
}
