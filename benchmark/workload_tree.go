package main

import (
	"math/rand/v2"
	"time"

	"mvptree/internal/bench"
	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// Seed streams: every generated input draws from its own PCG stream of
// the run's seed, so adding a draw to one does not shift another.
const (
	streamData = iota
	streamQueries
	streamRadius
	streamSchedule
	streamWarm
)

func stream(seed uint64, s uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, s)) }

const (
	dim = 20
	knn = 10
)

// paperTree is the paper's recommended mvp-tree: m=3, k=80, p=5.
var paperTree = mvp.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5}

// sink keeps the kernel probes' results alive.
var sink float64

// vectorSpace wraps generated vectors as an L2 space: the radius is
// calibrated to the given selectivity, the kernel probes are the three
// L2 kernels (64 queries per point for the block kernel).
func vectorSpace(seed uint64, items, queries [][]float64, selectivity float64, tree mvp.Options) (*space[[]float64], error) {
	radius, err := bench.CalibrateRadius(stream(seed, streamRadius), items, metric.L2, selectivity, 0)
	if err != nil {
		return nil, err
	}
	sp := &space[[]float64]{
		items: items, queries: queries, dist: metric.L2, radius: radius, k: knn, tree: tree,
		quantizable: true, enc: codec.EncodeVector, dec: codec.DecodeVector,
	}
	sp.truth = computeTruth(items, queries, sp.dist, radius, knn)
	points := items[:min(4096, len(items))]
	block := queries[:min(64, len(queries))]
	blockPoints := items[:min(256, len(items))]
	bounds := make([]float64, len(block))
	for i := range bounds {
		bounds[i] = radius
	}
	out := make([]float64, len(block))
	sp.probes = []kernelProbe[[]float64]{
		{op: "l2_ns", per: len(points), run: func(q []float64) {
			for _, p := range points {
				sink += metric.L2(q, p)
			}
		}},
		{op: "l2_upto_ns", per: len(points), bounded: true, run: func(q []float64) {
			for _, p := range points {
				sink += metric.L2UpTo(q, p, radius)
			}
		}},
		{op: "l2_block_ns", per: len(blockPoints) * len(block), run: func([]float64) {
			for _, p := range blockPoints {
				metric.L2Block(p, block, bounds, out)
			}
			sink += out[0]
		}},
	}
	return sp, nil
}

var wordOptions = dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3}

// wordSpace wraps generated words as an edit-distance space at radius 1.
func wordSpace(items, queries []string) *space[string] {
	sp := &space[string]{
		items: items, queries: queries, dist: metric.Edit, radius: 1, k: knn, tree: paperTree,
		enc: codec.EncodeString, dec: codec.DecodeString,
	}
	sp.truth = computeTruth(items, queries, sp.dist, sp.radius, knn)
	points := items[:min(4096, len(items))]
	sp.probes = []kernelProbe[string]{
		{op: "edit_ns", per: len(points), run: func(q string) {
			for _, p := range points {
				sink += metric.Edit(q, p)
			}
		}},
		{op: "edit_upto_ns", per: len(points), bounded: true, run: func(q string) {
			for _, p := range points {
				sink += metric.EditUpTo(q, p, 1)
			}
		}},
	}
	return sp
}

// treeWorkload is a single mvp-tree answering a sequential mix of range
// and kNN queries: uniform-l2 and words-edit.
type treeWorkload[T any] struct {
	generate   func(e *env) (*space[T], error)
	rangeShare float64
	slowCalls  bool // the traced pass replays fewer queries

	sp   *space[T]
	tree *mvp.Tree[T]
}

func newUniformL2() workload {
	return &treeWorkload[[]float64]{
		rangeShare: 0.7,
		generate: func(e *env) (*space[[]float64], error) {
			items := dataset.UniformVectors(stream(e.seed, streamData), e.sz.N, dim)
			queries := dataset.UniformQueries(stream(e.seed, streamQueries), e.sz.Pool, dim)
			return vectorSpace(e.seed, items, queries, 0.02, paperTree)
		},
	}
}

func newWordsEdit() workload {
	return &treeWorkload[string]{
		rangeShare: 0.9, slowCalls: true,
		generate: func(e *env) (*space[string], error) {
			items := dataset.Words(stream(e.seed, streamData), e.sz.N, wordOptions)
			queries := dataset.SampleQueries(stream(e.seed, streamQueries), items, e.sz.Pool)
			return wordSpace(items, queries), nil
		},
	}
}

// buildRepeatedly builds the workload's index reps times as a user
// would, recording each build's wall time for setup_s, and reports
// mem_bytes_per_item (live heap the last build added, per item). It
// returns the last build.
func buildRepeatedly[I any](rep *report, reps, n int, build func() (I, error)) (I, error) {
	var idx, zero I
	var heap uint64
	for i := 0; i < reps; i++ {
		idx = zero // drop the previous build before measuring the heap
		heap = liveHeap()
		t0 := time.Now()
		var err error
		if idx, err = build(); err != nil {
			return zero, err
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	rep.set("mem_bytes_per_item", heapDelta(heap, liveHeap())/float64(n))
	return idx, nil
}

func (w *treeWorkload[T]) setup(e *env, rep *report) (err error) {
	if w.sp, err = w.generate(e); err != nil {
		return err
	}
	w.tree, err = buildRepeatedly(rep, e.sz.Builds, len(w.sp.items), func() (*mvp.Tree[T], error) {
		return mvp.New(w.sp.items, w.sp.counter(), w.sp.treeOpts(e.seed))
	})
	return err
}

// answer is one measured query: its latency and whether the oracle
// agreed.
type answer struct {
	query int
	knn   bool
	us    float64
	ok    bool
}

// runQueries answers queries drawn from the pool by the schedule's
// stream one after another until the time is up. Each answer is checked
// against the oracle once its own clock has stopped and then dropped, so
// the heap stays as the index left it; the phase's clock stands still
// during a check, and wall is what it read at the end.
func (w *treeWorkload[T]) runQueries(rng *rand.Rand, d time.Duration) (out []answer, wall time.Duration) {
	var checking time.Duration
	start := time.Now()
	for time.Since(start) < d {
		a := answer{knn: rng.Float64() >= w.rangeShare, query: rng.IntN(len(w.sp.queries))}
		q, t := w.sp.queries[a.query], w.sp.truth[a.query]
		if a.knn {
			t0 := time.Now()
			nbrs := w.tree.KNN(q, w.sp.k)
			a.us = micros(time.Since(t0))
			t0 = time.Now()
			a.ok = knnOK(t, nbrs)
			checking += time.Since(t0)
		} else {
			t0 := time.Now()
			items := w.tree.Range(q, w.sp.radius)
			a.us = micros(time.Since(t0))
			t0 = time.Now()
			a.ok = rangeOK(t, q, items, w.sp.dist)
			checking += time.Since(t0)
		}
		out = append(out, a)
	}
	return out, time.Since(start) - checking
}

// tally counts checked answers into the report and returns the
// latencies of the correct ones by kind.
func tally(rep *report, answers []answer) (rangeUs, knnUs []float64) {
	for i, a := range answers {
		rep.Attempted++
		switch {
		case !a.ok:
			rep.fail("op %d (query %d, knn=%v)", i, a.query, a.knn)
		case a.knn:
			knnUs = append(knnUs, a.us)
		default:
			rangeUs = append(rangeUs, a.us)
		}
	}
	return rangeUs, knnUs
}

func (w *treeWorkload[T]) measure(e *env, rep *report, d time.Duration) error {
	w.runQueries(stream(e.seed, streamWarm), e.sz.Warm)
	dists := w.tree.DistanceCount()
	answers, wall := w.runQueries(stream(e.seed, streamSchedule), d)
	dists = w.tree.DistanceCount() - dists
	rangeUs, knnUs := tally(rep, answers)
	rep.measured(rangeUs, knnUs, wall, dists)
	return nil
}

func (w *treeWorkload[T]) traced(e *env, rep *report) error {
	rec := rep.rec
	root := rec.start(noSpan, "bench", "traced_pass")
	tq := e.sz.TraceQ
	if w.slowCalls {
		tq = e.sz.TraceQSlow
	}
	if err := layerPass(e, rep, root, w.sp, tq, nil); err != nil {
		return err
	}
	// Recording cost on the workload's own path: the same range query
	// with the recorder on and off, alternating which goes first.
	var tracedUs, untracedUs []float64
	for i, q := range w.sp.queries[:min(tq, len(w.sp.queries))] {
		for pass := 0; pass < 2; pass++ {
			if (i+pass)%2 == 0 {
				tracedUs = append(tracedUs, timeCall(func() {
					id := rec.start(root, "bench", "traced_range")
					w.tree.Range(q, w.sp.radius)
					rec.end(id)
				}))
			} else {
				untracedUs = append(untracedUs, timeCall(func() { w.tree.Range(q, w.sp.radius) }))
			}
		}
	}
	finishTrace(rep, root, tracedUs, untracedUs)
	return nil
}

func (w *treeWorkload[T]) close() {}
