package mvp

import (
	"sync"
	"sync/atomic"

	"mvptree/internal/obs"
)

// Intra-query parallel range search: one large query is answered by
// several goroutines over a single tree. The traversal is split in two
// phases so that parallelism cannot perturb anything observable:
//
//  1. Plan (sequential): the top of the tree is expanded exactly as the
//     recursive search would — same vantage distances, same bounded
//     kernels, same shell pruning — until the surviving frontier holds
//     enough independent subtrees to feed the workers. Vantage-point
//     hits found while planning are parked in order-preserving chunks.
//
//  2. Execute (parallel): frontier subtrees are claimed from an atomic
//     cursor by a bounded worker pool (the same pool shape
//     internal/build uses). Each worker runs the ordinary sequential
//     traversal over its subtree with its own pooled query scratch,
//     writing results and stats into the subtree's dedicated slot.
//
// Concatenating the slots in frontier order reproduces the sequential
// depth-first output byte for byte, and summing the per-slot stats in
// that order reproduces the sequential SearchStats exactly: every
// distance computation made here is one the sequential search makes,
// so the paper's cost metric is untouched at every worker count.

// parallelRangeTargetFactor sizes the planned frontier: expansion stops
// once it holds at least workers×factor subtrees, so the slowest
// subtree cannot straggle the whole query badly.
const parallelRangeTargetFactor = 4

// parallelRangeMaxRounds caps frontier expansion (each round expands
// one tree level) so planning work stays negligible.
const parallelRangeMaxRounds = 6

// planElem is one ordered slot of the planned traversal: results
// produced during planning (the expanded nodes' vantage-point hits),
// followed optionally by a pending subtree, identified by its index
// into the task arrays.
type planElem[T any] struct {
	out  []T
	task int // -1 when the slot carries only planned output
}

// rangePlan accumulates the sequential expansion phase. The query-PATH
// prefixes of pending subtrees live in shared growing arenas addressed
// by (offset, length) windows, the same representation best-first kNN
// uses, so sibling tasks share their common prefix.
type rangePlan[T any] struct {
	elems []planElem[T]
	tasks []pendingRef[T]
	path  []float64 // concatenated qpath windows
	lo    []float64 // matching qpath[l]-r windows
	hi    []float64 // matching qpath[l]+r windows
}

// rangeParallel is RangeWithStats answered by up to workers goroutines
// (Search with Opts.Workers > 1), with identical results, stats and
// distance counts at every worker count (see the file comment for how).
func (t *Tree[T]) rangeParallel(q T, r float64, workers int) ([]T, SearchStats) {
	span := t.StartQuery(obs.KindRange)
	var s SearchStats
	if r < 0 || t.root == nil {
		span.Done(&s)
		return nil, s
	}
	// The parallel traversal never consults the cascade: the per-query
	// cache is single-owner, and sharing one across workers would make
	// stats depend on scheduling. Passing nil keeps results and stats
	// identical at every worker count (the cascade only ever skips work,
	// never changes answers).
	sc := t.getScratch()

	// Phase 1: sequential frontier expansion.
	plan := &rangePlan[T]{
		elems: []planElem[T]{{task: 0}},
		tasks: []pendingRef[T]{{n: t.root}},
	}
	target := workers * parallelRangeTargetFactor
	for round := 0; round < parallelRangeMaxRounds && len(plan.tasks) < target; round++ {
		if !t.expandPlanLevel(plan, q, r, &s) {
			break
		}
	}

	// Phase 2: claim subtrees from an atomic cursor; each worker owns a
	// pooled scratch and writes into its task's dedicated slots.
	tasks := plan.tasks
	outs := make([][]T, len(tasks))
	stats := make([]SearchStats, len(tasks))
	w := min(workers, len(tasks))
	var cursor atomic.Int64
	runWorker := func(sc *queryScratch[T]) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			pn := tasks[i]
			copy(sc.qpath, plan.path[pn.off:pn.off+pn.plen])
			copy(sc.qlo, plan.lo[pn.off:pn.off+pn.plen])
			copy(sc.qhi, plan.hi[pn.off:pn.off+pn.plen])
			t.rangeNode(pn.n, q, r, int(pn.plen), sc, nil, &outs[i], &stats[i])
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wsc := t.getScratch()
			runWorker(wsc)
			t.putScratch(wsc)
		}()
	}
	runWorker(sc) // the calling goroutine is a worker too
	wg.Wait()
	t.putScratch(sc)

	// Stitch: slots in plan order, stats summed in the same order.
	total := 0
	for _, e := range plan.elems {
		total += len(e.out)
		if e.task >= 0 {
			total += len(outs[e.task])
		}
	}
	out := make([]T, 0, total)
	for _, e := range plan.elems {
		out = append(out, e.out...)
		if e.task >= 0 {
			out = append(out, outs[e.task]...)
			s.Add(stats[e.task])
		}
	}
	s.Results = len(out)
	span.Done(&s)
	return out, s
}

// expandPlanLevel expands every pending internal-node subtree of the
// plan by one level, exactly as rangeNode would visit it: vantage
// distances (bounded once the query PATH is full), vantage hits, shell
// pruning. Pending leaves stay pending — they are executed, not
// planned. Reports whether anything was expanded.
func (t *Tree[T]) expandPlanLevel(plan *rangePlan[T], q T, r float64, s *SearchStats) bool {
	expanded := false
	elems := plan.elems
	tasks := plan.tasks
	plan.elems = make([]planElem[T], 0, len(elems)*2)
	plan.tasks = make([]pendingRef[T], 0, len(tasks)*2)
	for _, e := range elems {
		if e.task < 0 || tasks[e.task].n.isLeaf() {
			if e.task >= 0 {
				plan.tasks = append(plan.tasks, tasks[e.task])
				e.task = len(plan.tasks) - 1
			}
			plan.elems = append(plan.elems, e)
			continue
		}
		expanded = true
		pn := tasks[e.task]
		n := pn.n
		s.NodesVisited++
		t.TraceNode(false)
		plen := int(pn.plen)
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
		chunk := e.out
		if d1 <= r {
			chunk = append(chunk, n.sv1)
		}
		if d2 <= r {
			chunk = append(chunk, n.sv2)
		}
		off := pn.off
		if plen < t.p {
			noff := int32(len(plan.path))
			plan.path = append(plan.path, plan.path[off:off+pn.plen]...)
			plan.lo = append(plan.lo, plan.lo[off:off+pn.plen]...)
			plan.hi = append(plan.hi, plan.hi[off:off+pn.plen]...)
			plan.path = append(plan.path, d1)
			plan.lo = append(plan.lo, d1-r)
			plan.hi = append(plan.hi, d1+r)
			plen++
			if plen < t.p {
				plan.path = append(plan.path, d2)
				plan.lo = append(plan.lo, d2-r)
				plan.hi = append(plan.hi, d2+r)
				plen++
			}
			off = noff
		}
		plan.elems = append(plan.elems, planElem[T]{out: chunk, task: -1})
		for g, row := range n.children {
			lo1, hi1 := shellBounds(n.cut1, g)
			if d1+r < lo1 || d1-r > hi1 {
				s.ShellsPruned += len(row)
				t.TracePrune(obs.FilterShell, len(row))
				continue
			}
			for h, c := range row {
				if c == nil {
					continue
				}
				lo2, hi2 := shellBounds(n.cut2[g], h)
				if d2+r < lo2 || d2-r > hi2 {
					s.ShellsPruned++
					t.TracePrune(obs.FilterShell, 1)
					continue
				}
				plan.tasks = append(plan.tasks, pendingRef[T]{n: c, off: off, plen: int32(plen)})
				plan.elems = append(plan.elems, planElem[T]{task: len(plan.tasks) - 1})
			}
		}
	}
	return expanded
}
