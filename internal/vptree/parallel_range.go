package vptree

import (
	"sync"
	"sync/atomic"

	"mvptree/internal/obs"
)

// Intra-query parallel range search over one vp-tree, the counterpart
// of the mvp-tree's implementation (see internal/mvp/parallel_range.go
// for the two-phase design). The sequential plan expands the top of
// the tree exactly as the recursive search would; the surviving
// frontier subtrees are claimed from an atomic cursor by a bounded
// worker pool; slot-ordered stitching reproduces the sequential
// depth-first output and SearchStats byte for byte at every worker
// count.

const (
	parallelRangeTargetFactor = 4
	parallelRangeMaxRounds    = 8
)

// vpPlanElem is one ordered slot of the planned traversal: the expanded
// nodes' vantage hits, or a pending subtree (index into the task list).
type vpPlanElem[T any] struct {
	out  []T
	task int // -1 when the slot carries only planned output
}

// rangeParallel is RangeWithStats answered by up to workers goroutines
// (Search with Opts.Workers > 1), with identical results, stats and
// distance counts at every worker count.
func (t *Tree[T]) rangeParallel(q T, r float64, workers int) ([]T, SearchStats) {
	span := t.StartQuery(obs.KindRange)
	var s SearchStats
	if r < 0 || t.root == nil {
		span.Done(&s)
		return nil, s
	}

	// Phase 1: sequential frontier expansion.
	elems := []vpPlanElem[T]{{task: 0}}
	tasks := []*node[T]{t.root}
	target := workers * parallelRangeTargetFactor
	for round := 0; round < parallelRangeMaxRounds && len(tasks) < target; round++ {
		var expanded bool
		elems, tasks, expanded = t.expandPlanLevel(elems, tasks, q, r, &s)
		if !expanded {
			break
		}
	}

	// Phase 2: workers claim subtrees from an atomic cursor.
	outs := make([][]T, len(tasks))
	stats := make([]SearchStats, len(tasks))
	w := min(workers, len(tasks))
	var cursor atomic.Int64
	runWorker := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			t.rangeNodeStats(tasks[i], q, r, &outs[i], &stats[i])
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorker()
		}()
	}
	runWorker() // the calling goroutine is a worker too
	wg.Wait()

	// Stitch slots in plan order; stats summed in the same order.
	total := 0
	for _, e := range elems {
		total += len(e.out)
		if e.task >= 0 {
			total += len(outs[e.task])
		}
	}
	out := make([]T, 0, total)
	for _, e := range elems {
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

// expandPlanLevel expands every pending internal-node subtree by one
// level, exactly as rangeNodeStats would visit it. Pending leaves stay
// pending. Reports the rebuilt plan and whether anything was expanded.
func (t *Tree[T]) expandPlanLevel(elems []vpPlanElem[T], tasks []*node[T], q T, r float64, s *SearchStats) ([]vpPlanElem[T], []*node[T], bool) {
	expanded := false
	newElems := make([]vpPlanElem[T], 0, len(elems)*2)
	newTasks := make([]*node[T], 0, len(tasks)*2)
	for _, e := range elems {
		if e.task < 0 || tasks[e.task].leaf {
			if e.task >= 0 {
				newTasks = append(newTasks, tasks[e.task])
				e.task = len(newTasks) - 1
			}
			newElems = append(newElems, e)
			continue
		}
		expanded = true
		n := tasks[e.task]
		s.NodesVisited++
		t.TraceNode(false)
		d := t.dist.DistanceUpTo(q, n.vantage, r+n.cutMax)
		s.VantagePoints++
		t.TraceDistance(1)
		var chunk []T
		if d <= r {
			chunk = append(chunk, n.vantage)
		}
		newElems = append(newElems, vpPlanElem[T]{out: chunk, task: -1})
		for g, c := range n.children {
			lo, hi := shellBounds(n.cutoffs, g)
			if d+r < lo || d-r > hi {
				s.ShellsPruned++
				t.TracePrune(obs.FilterShell, 1)
				continue
			}
			if c == nil {
				continue
			}
			newTasks = append(newTasks, c)
			newElems = append(newElems, vpPlanElem[T]{task: len(newTasks) - 1})
		}
	}
	return newElems, newTasks, expanded
}
