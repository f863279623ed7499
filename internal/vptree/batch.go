package vptree

// Shared-traversal batch execution, the vp-tree counterpart of the
// mvp-tree's batch.go. SearchBatch answers a group of queries by
// descending the tree once: each node's vantage distances are computed
// for all still-active queries with one blocked metric call
// (metric.Counter.BlockKernel), per-query prune state lives in pooled
// struct-of-arrays scratch, and each leaf bucket is streamed item-major
// once for the group. Results, order, SearchStats and counter deltas
// are byte-identical to per-query Search at every batch size:
//
//   - Exact range is a DFS whose per-node decisions depend only on
//     (q, r), so a shared DFS with per-query active lists visits, per
//     query, exactly the sequential node set in the same child order.
//   - Block kernels are bit-identical to the one-to-one bounded kernels
//     for every (query, point, bound) triple.
//
// kNN (best-first pops diverge per query, so there is no traversal to
// share) and approximate modes go to per-query Search inside the same
// invocation.

import (
	"math"

	"mvptree/internal/cascade"
	"mvptree/internal/index"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
)

var _ index.BatchSearcher[int] = (*Tree[int])(nil)

// batchScratch is the pooled working state of one SearchBatch call.
type batchScratch[T any] struct {
	// Shared gather buffers for blocked vantage calls.
	pts    []T
	bounds []float64
	// Survivor gather buffers for item-major leaf scans.
	spts    []T
	sbounds []float64
	sdv     []float64
	sslots  []int32

	// Stack-discipline arenas for the shared range DFS.
	act    []int32
	dstack []float64

	// Per-slot query state.
	qs          []T
	rads        []float64
	stats       []SearchStats
	outs        [][]T
	spans       []obs.Span
	ccs         []*cascade.Cache
	qpreps      []quant.Prepared
	quantOn     []bool
	quantPruned []int

	// Leaf-local per-slot stage tallies.
	fC, fQ, comp []int

	// rangeLst lists the slots the shared DFS answers.
	rangeLst []int32
}

func growF(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
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
	bs.reserve(b)
	return bs
}

// reserve sizes every per-slot array for b slots (keeping pooled
// sub-state alive across growth) and resets the per-call lists.
func (bs *batchScratch[T]) reserve(b int) {
	if cap(bs.qs) < b {
		bs.qs = make([]T, b)
		bs.rads = make([]float64, b)
		bs.stats = make([]SearchStats, b)
		bs.outs = make([][]T, b)
		bs.spans = make([]obs.Span, b)
		bs.ccs = make([]*cascade.Cache, b)
		bs.qpreps = make([]quant.Prepared, b)
		bs.quantOn = make([]bool, b)
		bs.quantPruned = make([]int, b)
		bs.fC = make([]int, b)
		bs.fQ = make([]int, b)
		bs.comp = make([]int, b)
	} else {
		bs.qs = bs.qs[:b]
		bs.rads = bs.rads[:b]
		bs.stats = bs.stats[:b]
		bs.outs = bs.outs[:b]
		bs.spans = bs.spans[:b]
		bs.ccs = bs.ccs[:b]
		bs.qpreps = bs.qpreps[:b]
		bs.quantOn = bs.quantOn[:b]
		bs.quantPruned = bs.quantPruned[:b]
		bs.fC, bs.fQ, bs.comp = bs.fC[:b], bs.fQ[:b], bs.comp[:b]
	}
	bs.rangeLst = bs.rangeLst[:0]
}

// putBatchScratch clears every reference the scratch took from the
// caller so pooling never pins them.
func (t *Tree[T]) putBatchScratch(bs *batchScratch[T]) {
	var zero T
	for i := range bs.qs {
		bs.qs[i] = zero
		bs.outs[i] = nil
		bs.ccs[i] = nil
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

// prepareQuantSlot is prepareQuant for one batch slot.
func (t *Tree[T]) prepareQuantSlot(bs *batchScratch[T], i int, q T) {
	bs.quantOn[i] = false
	bs.quantPruned[i] = 0
	if t.qset == nil {
		return
	}
	qv, ok := any(q).([]float64)
	if !ok {
		return
	}
	t.qset.Prepare(&bs.qpreps[i], qv)
	bs.quantOn[i] = true
}

// SearchBatch answers reqs[i] into results[i] with one shared traversal
// per query group (index.BatchSearcher). It panics unless len(results)
// == len(reqs). Exact range queries share one DFS and everything else
// (kNN, approximate) goes to per-query Search within the
// same call; every results[i] is byte-identical to Search(reqs[i]).
func (t *Tree[T]) SearchBatch(reqs []index.Query[T], results []index.Result[T]) {
	if len(reqs) != len(results) {
		panic("vptree: SearchBatch requires len(results) == len(reqs)")
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
		if req.K > 0 || req.Opts.Approximate() {
			results[i] = t.Search(*req)
			continue
		}
		bs.spans[i] = t.StartQuery(obs.KindRange)
		bs.stats[i] = SearchStats{}
		if req.Radius < 0 || t.root == nil {
			bs.spans[i].Done(&bs.stats[i])
			results[i] = index.Result[T]{Stats: bs.stats[i]}
			continue
		}
		bs.qs[i] = req.Point
		bs.rads[i] = req.Radius
		t.prepareQuantSlot(bs, i, req.Point)
		if t.cas != nil {
			bs.ccs[i] = t.cas.Get()
		}
		bs.rangeLst = append(bs.rangeLst, int32(i))
	}
	if len(bs.rangeLst) > 0 {
		t.rangeBatchNode(t.root, bs.rangeLst, bs)
		for _, j := range bs.rangeLst {
			s := &bs.stats[j]
			if t.cas != nil {
				t.cas.Put(bs.ccs[j])
				bs.ccs[j] = nil
			}
			t.ObserveQuantPruned(bs.quantPruned[j])
			s.Results = len(bs.outs[j])
			bs.spans[j].Done(s)
			results[j] = index.Result[T]{Items: bs.outs[j], Stats: *s}
			bs.outs[j] = nil // the result slice escapes to the caller
		}
	}
	t.putBatchScratch(bs)
}

// rangeBatchNode is rangeNode for a group: act holds the slots whose
// query balls can still reach n.
func (t *Tree[T]) rangeBatchNode(n *node[T], act []int32, bs *batchScratch[T]) {
	if n == nil || len(act) == 0 {
		return
	}
	for _, j := range act {
		bs.stats[j].NodesVisited++
		t.TraceNode(n.leaf)
	}
	if n.leaf {
		t.rangeBatchLeaf(n, act, bs)
		return
	}

	na := len(act)
	pts := bs.pts[:0]
	for _, j := range act {
		pts = append(pts, bs.qs[j])
	}
	bs.pts = pts
	blk := t.dist.BlockKernel()

	// The vantage distances live on the dstack so sibling recursion
	// cannot clobber them; one blocked call replaces na sequential ones.
	// Stamped cascade pivots a query's cache still wants are computed
	// exactly (+Inf bound) and registered; everyone else abandons past
	// r+cutMax, exactly as rangeNode does.
	dBase := len(bs.dstack)
	bs.dstack = growTo(bs.dstack, dBase+na)
	dv := bs.dstack[dBase : dBase+na]
	bounds := growF(bs.bounds, na)
	bs.bounds = bounds
	for i, j := range act {
		if cc := bs.ccs[j]; cc != nil && n.cas != 0 && cc.Wants() {
			bounds[i] = math.Inf(1)
		} else {
			bounds[i] = bs.rads[j] + n.cutMax
		}
	}
	blk(n.vantage, pts, bounds, dv)
	if n.cas != 0 {
		for i, j := range act {
			if cc := bs.ccs[j]; cc != nil && cc.Wants() {
				cc.Register(n.cas-1, dv[i])
			}
		}
	}
	t.dist.Add(int64(na))

	for i, j := range act {
		s := &bs.stats[j]
		s.VantagePoints++
		t.TraceDistance(1)
		if dv[i] <= bs.rads[j] {
			bs.outs[j] = append(bs.outs[j], n.vantage)
		}
	}

	// Child visiting order is g ascending — each query's node visit
	// order is exactly its sequential DFS order. The shell window check
	// (and its prune accounting) runs for nil children too, as the
	// sequential code's recursion into nil does nothing but the else
	// branch still counts.
	for g, c := range n.children {
		lo, hi := shellBounds(n.cutoffs, g)
		gBase := len(bs.act)
		for i, j := range act {
			r := bs.rads[j]
			if dv[i]+r >= lo && dv[i]-r <= hi {
				bs.act = append(bs.act, j)
			} else {
				bs.stats[j].ShellsPruned++
				t.TracePrune(obs.FilterShell, 1)
			}
		}
		gAct := bs.act[gBase:]
		if c != nil && len(gAct) > 0 {
			t.rangeBatchNode(c, gAct, bs)
		}
		bs.act = bs.act[:gBase]
	}
	bs.dstack = bs.dstack[:dBase]
}

// rangeBatchLeaf streams one leaf bucket item-major for the group:
// every still-interested query filters item i through its cascade and
// quantized bounds in the sequential order, and one blocked call
// evaluates the survivors. The vp-tree stores no leaf distances, so a
// candidate passing those filters always reaches the kernel.
func (t *Tree[T]) rangeBatchLeaf(n *node[T], act []int32, bs *batchScratch[T]) {
	for _, j := range act {
		bs.stats[j].LeavesVisited++
		bs.fC[j], bs.fQ[j], bs.comp[j] = 0, 0, 0
	}
	blk := t.dist.BlockKernel()
	cas, base := t.cas, n.casBase
	qset, qcodes := t.qset, n.qcodes
	hasQuant := qcodes != nil
	items := n.items
	for i := range items {
		surv := bs.sslots[:0]
		spts := bs.spts[:0]
		sbounds := bs.sbounds[:0]
		for _, j := range act {
			r := bs.rads[j]
			if cc := bs.ccs[j]; cc != nil && cc.Registered() > 0 {
				if cas.LowerBound(cc, base+int32(i)) > r {
					bs.fC[j]++
					continue
				}
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
		if len(surv) > 0 {
			sdv := growF(bs.sdv, len(surv))
			bs.sdv = sdv
			blk(items[i], spts, sbounds, sdv)
			for k, j := range surv {
				if sdv[k] <= sbounds[k] {
					bs.outs[j] = append(bs.outs[j], items[i])
				}
			}
		}
	}
	total := 0
	for _, j := range act {
		total += bs.comp[j]
		s := &bs.stats[j]
		s.Candidates += len(items)
		s.Computed += bs.comp[j]
		s.FilteredByCascade += bs.fC[j]
		bs.quantPruned[j] += bs.fQ[j]
		if bs.fC[j] > 0 {
			t.TracePrune(obs.FilterCascade, bs.fC[j])
		}
		if bs.fQ[j] > 0 {
			t.TracePrune(obs.FilterQuantized, bs.fQ[j])
		}
		if bs.comp[j] > 0 {
			t.TraceDistance(bs.comp[j])
		}
	}
	t.dist.Add(int64(total))
}
