// Package build is the shared parallel construction core every index
// structure in this repository is built through. The paper treats
// construction cost — distance computations and wall-clock time — as a
// first-class concern (§4.2 analyses the mvp-tree's O(n·log_{m²} n)
// build), and surveys of metric indexing describe the vp-tree family,
// GNATs and ball trees as instances of one pivot-partition template.
// This package is that template's engine room; the index
// packages keep only their structure-specific partitioning logic.
//
// It provides five primitives:
//
//   - Measure, a batch-distance evaluator that spreads the distances
//     from one vantage point to a set of items over a bounded worker
//     pool shared across the whole build, in one piece per worker that
//     a fork state carries; its MeasureIDs form measures
//     each row, or each worker's piece of one, through the counter's
//     exact row kernel (metric.Counter.Row) when the metric has one —
//     edit distance builds the vantage point's match table once per
//     row, L2 sums four items at once — and one pair at a time
//     otherwise;
//
//   - SplitEqual over a Scratch, the partition step of the vp-tree
//     family: the tree is built over one permutation of item positions
//     partitioned in place, each node cutting its own range of packed
//     (distance, id, place) keys into equal-cardinality shells by
//     selection — a shell is the keys of its ranks under (distance, id),
//     in the arrangement Hoare's two-ended sweeps leave, which the
//     blocked sweeps that make the split branch-free reproduce swap for
//     swap, since the next draw and split read it (see partition.go);
//
//   - Fork, subtree-level task spawning for the recursive builders,
//     paired with a splittable deterministic RNG (see RNG) so that the
//     tree built with Workers=1 and Workers=N is identical — same
//     shape, same vantage points, same Save bytes. Start makes the
//     pool — Workers−1 helper goroutines, generators and fork states —
//     once, and Finish stops it, so neither a fork nor a batch fanned
//     out allocates;
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
// recursive build, then call Finish for the Stats; Finish also stops the
// pool's helpers, so every Builder must be finished, once.
//
// Builder methods may be called from any goroutine spawned by Fork.
type Builder[T any] struct {
	dist    *metric.Counter[T]
	raw     metric.DistanceFunc[T]
	row     metric.RowDistanceFunc[T] // nil: rows loop raw
	workers int
	sem     chan struct{} // worker tokens; capacity workers-1
	// work hands forks to the workers-1 helpers, one send per token
	// taken, so it never holds more than its capacity of workers-1 and a
	// send never waits; served counts the helpers still running.
	work   chan *fork[T]
	served sync.WaitGroup
	// mu guards three free lists, all filled by Start: idle, the fork
	// states no fork is using, forkDepth a worker (a fork that finds none
	// left runs its tasks inline, as one that finds no token free does),
	// spare, the generators no node is drawing from, one a worker (Rand:
	// at most one a worker is ever out), and samples, SelectVantage's
	// scratch no selection is using, one a worker too.
	mu      sync.Mutex
	idle    *fork[T]
	spare   *Generator
	samples *sampleScratch
	start   time.Time
	before  int64
	nodes   atomic.Int64
	depth   atomic.Int64
	// selection tallies the distances SelectVantage made.
	selection atomic.Int64
}

// forkDepth is how many fork states Start makes a worker. A node's forks
// run one after another and a fork nests in another one tree level down,
// so the states run out only where forks that all found helpers nest
// more than forkDepth levels deep on every worker, and then the next
// fork runs inline. The mvp-tree's builds of 50 000 vectors and 50 000
// words — paper options, v = 1 and the classic vp-tree, at Workers 2, 4
// and 8 — never had more than 2.5 a worker in use at once; 16 leaves that
// room for deeper trees and costs a few kilobytes a build.
const forkDepth = 16

// Start opens a build context measuring distances through dist. What the
// build's pool needs — its helpers, generators and fork states — it makes
// here, once, so that no node allocates at any worker count.
func Start[T any](dist *metric.Counter[T], opts Options) *Builder[T] {
	w := opts.WorkerCount()
	b := &Builder[T]{
		dist:    dist,
		raw:     dist.Func(),
		row:     dist.Row(),
		workers: w,
		start:   time.Now(),
		before:  dist.Count(),
	}
	gens := make([]Generator, w)
	for i := range gens {
		gens[i].Rand = rand.New(&gens[i].pcg)
		b.Done(&gens[i])
	}
	scratch := make([]sampleScratch, w)
	for i := range scratch {
		scratch[i].next, b.samples = b.samples, &scratch[i]
	}
	if w > 1 {
		b.sem = make(chan struct{}, w-1)
		b.work = make(chan *fork[T], w-1)
		forks := make([]fork[T], forkDepth*w)
		for i := range forks {
			forks[i].b = b
			b.release(&forks[i])
		}
		b.served.Add(w - 1)
		for range w - 1 {
			go b.serve()
		}
	}
	return b
}

// serve is one of the pool's helpers: it joins each fork handed to it
// until Finish closes the hand-off.
func (b *Builder[T]) serve() {
	defer b.served.Done()
	for f := range b.work {
		f.help()
	}
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
	b.measure(batch[T]{v: v, item: item, out: out})
}

// measure runs the batch r: whole on the calling goroutine unless it is
// large enough to pool, else cut into one piece per worker, the tasks of
// a fork whose state carries r — whoever is free takes the next piece,
// and with the pool saturated the caller takes them all. It settles the
// counter once.
func (b *Builder[T]) measure(r batch[T]) {
	n := len(r.out)
	if b.workers > 1 && n >= MeasureThreshold {
		size := (n + b.workers - 1) / b.workers
		pieces := (n + size - 1) / size
		if f := b.claim(pieces); f != nil {
			r.size = size
			f.batch = r
			f.launch(0, pieces)
			b.dist.Add(int64(n))
			return
		}
	}
	r.size = n
	r.piece(b, 0)
	b.dist.Add(int64(n))
}

// Rand returns src.Rand() — the source of the random decisions at tree
// position src — on a generator of the build's. The node hands it back
// with Done once its decisions are made, which is before it forks.
func (b *Builder[T]) Rand(src RNG) *Generator {
	b.mu.Lock()
	g := b.spare
	if g != nil {
		b.spare = g.next
	}
	b.mu.Unlock()
	if g == nil {
		g = new(Generator)
		g.Rand = rand.New(&g.pcg)
	}
	g.pcg.Seed(src.key, randStream)
	return g
}

// Done returns a generator Rand lent.
func (b *Builder[T]) Done(g *Generator) {
	b.mu.Lock()
	g.next, b.spare = b.spare, g
	b.mu.Unlock()
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
	if f := b.claim(hi - lo); f != nil {
		f.task = task
		f.launch(lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		task(i)
	}
}

// claim returns a fork state for n tasks with one helper's token taken,
// or nil — the tasks run inline — with one worker, fewer than two tasks,
// no token free or no fork state left.
func (b *Builder[T]) claim(n int) *fork[T] {
	if b.workers == 1 || n < 2 || !b.acquire() {
		return nil
	}
	b.mu.Lock()
	f := b.idle
	if f != nil {
		b.idle = f.next
	}
	b.mu.Unlock()
	if f == nil {
		<-b.sem
	}
	return f
}

// release hands a fork state back to the idle list.
func (b *Builder[T]) release(f *fork[T]) {
	b.mu.Lock()
	f.next, b.idle = b.idle, f
	b.mu.Unlock()
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

// fork is one Fork that found helpers: the cursor they and the forker
// claim task indices from, and the tasks — task(i), or with task nil the
// i-th piece of a measured batch.
type fork[T any] struct {
	b       *Builder[T]
	next    *fork[T] // the next idle one (Builder.idle)
	cursor  atomic.Int64
	hi      int64
	task    func(int)
	batch   batch[T]
	helpers sync.WaitGroup
}

// launch runs the tasks [lo, hi) on the forker and on helpers: the one
// claim took a token for and one more per token free, up to one per task
// besides the forker's. It hands the state back once all are done.
func (f *fork[T]) launch(lo, hi int) {
	b := f.b
	f.cursor.Store(int64(lo))
	f.hi = int64(hi)
	helpers := 1
	for helpers < hi-lo-1 && b.acquire() {
		helpers++
	}
	f.helpers.Add(helpers)
	for range helpers {
		b.work <- f
	}
	f.run()
	f.helpers.Wait()
	f.task, f.batch = nil, batch[T]{}
	b.release(f)
}

func (f *fork[T]) run() {
	for i := f.cursor.Add(1) - 1; i < f.hi; i = f.cursor.Add(1) - 1 {
		if f.task != nil {
			f.task(int(i))
		} else {
			f.batch.piece(f.b, int(i))
		}
	}
}

// help is a helper's part of its fork: it runs tasks until none is left,
// then hands its token back.
func (f *fork[T]) help() {
	f.run()
	<-f.b.sem
	f.helpers.Done()
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

// Finish closes the build context, stopping the pool's helpers, and
// reports its Stats. Nothing may fork or measure on b after it.
func (b *Builder[T]) Finish() Stats {
	if b.work != nil {
		close(b.work)
		b.served.Wait()
	}
	return Stats{
		Distances:          b.dist.Count() - b.before,
		SelectionDistances: b.selection.Load(),
		Wall:               time.Since(b.start),
		Nodes:              int(b.nodes.Load()),
		MaxDepth:           int(b.depth.Load()),
		Workers:            b.workers,
	}
}
