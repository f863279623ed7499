// Package build is the shared parallel construction core every index
// structure in this repository is built through. The paper treats
// construction cost — distance computations and wall-clock time — as a
// first-class concern (§4.2 analyses the mvp-tree's O(n·log_{m²} n)
// build), and surveys of metric indexing describe the vp-tree family,
// gh-trees, GNATs and ball trees as instances of one pivot-partition
// template. This package is that template's engine room; the index
// packages keep only their structure-specific partitioning logic.
//
// It provides five primitives:
//
//   - Measure, a batch-distance evaluator that spreads the distances
//     from one vantage point to a set of items over a bounded worker
//     pool shared across the whole build; its MeasureIDs form measures
//     each row, or each worker's piece of one, through the counter's
//     exact row kernel (metric.Counter.Row) when the metric has one —
//     edit distance builds the vantage point's match table once per row
//     — and one pair at a time otherwise;
//
//   - SplitEqual over a Scratch, the partition step of the vp-tree
//     family: the tree is built over one permutation of item positions
//     partitioned in place, each node cutting its own range of packed
//     (distance, id) keys into equal-cardinality shells by selection —
//     a shell is the keys of its ranks under (distance, id), in no
//     particular order (see partition.go);
//
//   - Fork, subtree-level task spawning for the recursive builders,
//     paired with a splittable deterministic RNG (see RNG) so that the
//     tree built with Workers=1 and Workers=N is identical — same
//     shape, same vantage points, same Save bytes;
//
//   - SelectVantage, sampled best-spread vantage-point selection, the
//     only implementation of it in the repository (see select.go);
//
//   - Stats, the uniform construction report (distance computations,
//     wall time, node count, max depth) returned by every structure's
//     NewWithStats.
//
// Determinism discipline: nothing observable may depend on goroutine
// scheduling. Measure writes each distance to a caller-fixed slot and
// settles the shared Counter once per batch, so distances and counter
// totals are scheduling-independent; Fork gives every subtree its own
// RNG derived from the parent's by index, so random choices are fixed
// by tree position, not by execution order; and sibling subtrees own
// disjoint ranges of the Scratch arenas, so what one task writes no
// other reads.
package build

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"mvptree/internal/metric"
)

// Options are the construction knobs shared by every index package;
// each package embeds them in its Options.
type Options struct {
	// Workers is the number of goroutines construction may use. Values
	// <= 1 build serially; the tree built is byte-for-byte identical
	// for every worker count (parallelism trades wall-clock time only).
	// The metric function must be safe for concurrent calls when
	// Workers > 1 — all built-in metrics are.
	Workers int
	// Seed seeds vantage-point / pivot selection, making construction
	// deterministic.
	Seed uint64
}

// Validate checks the shared options; pkg names the index package for
// error messages.
func (o Options) Validate(pkg string) error {
	if o.Workers < 0 {
		return fmt.Errorf("%s: Workers must be non-negative, got %d", pkg, o.Workers)
	}
	return nil
}

// WorkerCount normalizes Workers: values <= 1 mean one (serial).
func (o Options) WorkerCount() int {
	if o.Workers > 1 {
		return o.Workers
	}
	return 1
}

// Stats is the uniform construction report returned by every
// structure's NewWithStats.
type Stats struct {
	// Distances is the number of distance computations construction
	// made — the paper's build-cost measure. It is identical for every
	// worker count.
	Distances int64
	// SelectionDistances is the share of Distances spent choosing
	// vantage points (SelectVantage) rather than measuring a node's
	// points to the vantage points chosen.
	SelectionDistances int64
	// Wall is the wall-clock construction time; the quantity Workers
	// trades against.
	Wall time.Duration
	// Nodes counts nodes created (for the pivot table: pivots).
	Nodes int
	// MaxDepth is the deepest node level reached; a root-only
	// structure has MaxDepth 0.
	MaxDepth int
	// Workers is the worker count actually used.
	Workers int
}

// MeasureThreshold is the minimum batch size Measure fans out to worker
// goroutines; below it scheduling overhead dominates the metric calls.
const MeasureThreshold = 256

// Builder is the shared construction context for one index build: the
// bounded worker pool, the distance counter bracket, and the node/depth
// tally behind Stats. Create one with Start, thread it through the
// recursive build, then call Finish for the Stats.
//
// Builder methods may be called from any goroutine spawned by Fork.
type Builder[T any] struct {
	dist    *metric.Counter[T]
	raw     metric.DistanceFunc[T]
	row     metric.RowDistanceFunc[T] // nil: rows loop raw
	workers int
	sem     chan struct{} // worker tokens; capacity workers-1
	// gens holds the generators no node is drawing from: at most one per
	// worker is ever out, and a build so allocates that many (Rand).
	gens   chan *Generator
	start  time.Time
	before int64
	nodes  atomic.Int64
	depth  atomic.Int64
	// selection tallies the distances SelectVantage made.
	selection atomic.Int64
}

// Start opens a build context measuring distances through dist.
func Start[T any](dist *metric.Counter[T], opts Options) *Builder[T] {
	b := &Builder[T]{
		dist:    dist,
		raw:     dist.Func(),
		row:     dist.Row(),
		workers: opts.WorkerCount(),
		gens:    make(chan *Generator, opts.WorkerCount()),
		start:   time.Now(),
		before:  dist.Count(),
	}
	if b.workers > 1 {
		b.sem = make(chan struct{}, b.workers-1)
	}
	return b
}

// Workers reports the normalized worker count of the build.
func (b *Builder[T]) Workers() int { return b.workers }

// Measure fills out[i] with the distance from item(i) to the vantage
// point v for every i in [0, len(out)). With more than one worker and a
// large enough batch the raw metric runs on pool goroutines; otherwise
// it runs on the calling goroutine. Either way the shared Counter is
// settled once at the end (one atomic update per batch, not one per
// distance on a cache line every worker shares), and the resulting
// distances and the final count are identical.
func (b *Builder[T]) Measure(v T, item func(int) T, out []float64) {
	b.fanOut(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = b.raw(item(i), v)
		}
	})
	b.dist.Add(int64(len(out)))
}

// pooled reports whether a batch of n distances is spread over the
// pool.
func (b *Builder[T]) pooled(n int) bool { return b.workers > 1 && n >= MeasureThreshold }

// fanOut runs chunk over [0, n): whole if the batch is not pooled, else
// cut into one piece per worker, as the tasks of a Fork — whoever is
// free takes the next piece, and with the pool saturated the caller
// takes them all.
func (b *Builder[T]) fanOut(n int, chunk func(lo, hi int)) {
	if !b.pooled(n) {
		chunk(0, n)
		return
	}
	size := (n + b.workers - 1) / b.workers
	b.Fork((n+size-1)/size, func(i int) { chunk(i*size, min((i+1)*size, n)) })
}

// Rand returns src.Rand() — the source of the random decisions at tree
// position src — on a generator of the build's. The node hands it back
// with Done once its decisions are made, which is before it forks.
func (b *Builder[T]) Rand(src RNG) *Generator {
	var g *Generator
	select {
	case g = <-b.gens:
	default:
		g = new(Generator)
		g.Rand = rand.New(&g.pcg)
	}
	g.pcg.Seed(src.key, randStream)
	return g
}

// Done returns a generator Rand lent.
func (b *Builder[T]) Done(g *Generator) {
	select {
	case b.gens <- g:
	default:
	}
}

// Fork runs task(i) for every i in [0, n) and returns when all tasks
// finished: on the calling goroutine and on as many pool goroutines as
// worker tokens are free, all claiming the next index from one cursor,
// so none waits while a task is unclaimed. Tasks may themselves call
// Fork and Measure: token acquisition never blocks (a saturated pool
// degrades to inline execution), so nested forks cannot deadlock, and a
// helper that finds no task left hands its token back at once, to
// whichever fork inside a task still running asks next. Tasks must
// write to disjoint state — typically distinct child slots of one node.
func (b *Builder[T]) Fork(n int, task func(int)) { b.ForkRange(0, n, task) }

// ForkRange is Fork over the i in [lo, hi): a builder whose tasks are
// rows of one table forks a range of it through one func value, where a
// closure per fork would be an allocation per node.
func (b *Builder[T]) ForkRange(lo, hi int, task func(int)) {
	helpers := 0
	if b.workers > 1 {
		for helpers < hi-lo-1 && b.acquire() {
			helpers++
		}
	}
	if helpers == 0 {
		for i := lo; i < hi; i++ {
			task(i)
		}
		return
	}
	f := &fork{hi: int64(hi), task: task}
	f.next.Store(int64(lo))
	f.helpers.Add(helpers)
	for range helpers {
		go func() {
			defer f.helpers.Done()
			defer func() { <-b.sem }()
			f.run()
		}()
	}
	f.run()
	f.helpers.Wait()
}

// acquire takes a worker token if one is free.
func (b *Builder[T]) acquire() bool {
	select {
	case b.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// fork is a ForkRange that found helpers: the cursor they and the
// forker claim task indices from.
type fork struct {
	next    atomic.Int64
	hi      int64
	task    func(int)
	helpers sync.WaitGroup
}

func (f *fork) run() {
	for i := f.next.Add(1) - 1; i < f.hi; i = f.next.Add(1) - 1 {
		f.task(int(i))
	}
}

// Node records one node created at the given depth (root = 0) for the
// Stats tally. Safe to call from Fork tasks.
func (b *Builder[T]) Node(depth int) {
	b.nodes.Add(1)
	for {
		cur := b.depth.Load()
		if int64(depth) <= cur || b.depth.CompareAndSwap(cur, int64(depth)) {
			return
		}
	}
}

// Finish closes the build context and reports its Stats.
func (b *Builder[T]) Finish() Stats {
	return Stats{
		Distances:          b.dist.Count() - b.before,
		SelectionDistances: b.selection.Load(),
		Wall:               time.Since(b.start),
		Nodes:              int(b.nodes.Load()),
		MaxDepth:           int(b.depth.Load()),
		Workers:            b.workers,
	}
}
