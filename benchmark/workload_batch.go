package main

import (
	"math/rand/v2"
	"time"

	"mvptree/internal/dataset"
	"mvptree/internal/qexec"
	"mvptree/internal/shard"
)

const (
	groupSize       = 64
	rangeGroupShare = 0.75 // of the groups; the others are kNN groups
)

// batchWorkload is batch-clustered: groups of 64 queries through the
// executor (2 workers, shared-traversal batches of 64) over a 2-shard
// index of clustered vectors.
type batchWorkload struct {
	sp  *space[[]float64]
	idx *shard.Index[[]float64]
}

func newBatchClustered() workload { return &batchWorkload{} }

var groupOpts = qexec.Options{Workers: procs, Batch: groupSize}

func (w *batchWorkload) setup(e *env, rep *report) (err error) {
	items := dataset.ClusteredVectors(stream(e.seed, streamData), e.sz.N, dim, 1000, 0.15)
	queries := dataset.SampleQueries(stream(e.seed, streamQueries), items, e.sz.Pool)
	if w.sp, err = vectorSpace(e.seed, items, queries, 0.002, paperTree); err != nil {
		return err
	}
	w.idx, err = buildRepeatedly(rep, e.sz.Builds, len(items), func() (*shard.Index[[]float64], error) {
		return shard.New(items, w.sp.counter(), shard.MVP[[]float64](paperTree),
			shard.Options{Shards: procs, Workers: procs, Seed: e.seed})
	})
	return err
}

// group is one executed group: its wall time, how long checking it
// took and the members the oracle disagreed with.
type group struct {
	knn      bool
	wall     time.Duration
	checking time.Duration
	wrong    []int // pooled query ids
}

// runGroup draws a group of 64 queries from the pool, executes it and
// checks every member once the group's clock has stopped; rec may be nil.
func (w *batchWorkload) runGroup(rng *rand.Rand, rec *recorder, parent int) (group, error) {
	g := group{knn: rng.Float64() >= rangeGroupShare}
	ids := make([]int, groupSize)
	qs := make([][]float64, groupSize)
	for i := range ids {
		ids[i] = rng.IntN(len(w.sp.queries))
		qs[i] = w.sp.queries[ids[i]]
	}
	if g.knn {
		id := rec.start(parent, "qexec", "group_knn")
		t0 := time.Now()
		nbrs, _, err := qexec.RunKNN[[]float64](w.idx, qs, w.sp.k, groupOpts)
		g.wall = time.Since(t0)
		rec.end(id)
		if err != nil {
			return g, err
		}
		t0 = time.Now()
		for j, qi := range ids {
			if !knnOK(w.sp.truth[qi], nbrs[j]) {
				g.wrong = append(g.wrong, qi)
			}
		}
		g.checking = time.Since(t0)
		return g, nil
	}
	id := rec.start(parent, "qexec", "group_range")
	t0 := time.Now()
	items, _, err := qexec.RunRange[[]float64](w.idx, qs, w.sp.radius, groupOpts)
	g.wall = time.Since(t0)
	rec.end(id)
	if err != nil {
		return g, err
	}
	t0 = time.Now()
	for j, qi := range ids {
		if !rangeOK(w.sp.truth[qi], qs[j], items[j], w.sp.dist) {
			g.wrong = append(g.wrong, qi)
		}
	}
	g.checking = time.Since(t0)
	return g, nil
}

// runGroups executes groups one after another until the time is up. The
// phase's clock stands still while a group is checked; wall is what it
// read at the end.
func (w *batchWorkload) runGroups(rng *rand.Rand, d time.Duration) (out []group, wall time.Duration, err error) {
	var checking time.Duration
	start := time.Now()
	for time.Since(start) < d {
		g, err := w.runGroup(rng, nil, noSpan)
		if err != nil {
			return nil, 0, err
		}
		checking += g.checking
		out = append(out, g)
	}
	return out, time.Since(start) - checking, nil
}

func (w *batchWorkload) measure(e *env, rep *report, d time.Duration) error {
	if _, _, err := w.runGroups(stream(e.seed, streamWarm), e.sz.Warm); err != nil {
		return err
	}
	dists := w.idx.DistanceCount()
	groups, wall, err := w.runGroups(stream(e.seed, streamSchedule), d)
	if err != nil {
		return err
	}
	dists = w.idx.DistanceCount() - dists
	// A query's latency is its group's wall time shared equally; a wrong
	// answer contributes no latency sample.
	var rangeUs, knnUs []float64
	for gi, g := range groups {
		rep.Attempted += groupSize
		for _, qi := range g.wrong {
			rep.fail("group %d (knn=%v) query %d", gi, g.knn, qi)
		}
		for i := len(g.wrong); i < groupSize; i++ {
			if us := micros(g.wall) / groupSize; g.knn {
				knnUs = append(knnUs, us)
			} else {
				rangeUs = append(rangeUs, us)
			}
		}
	}
	rep.measured(rangeUs, knnUs, wall, dists)
	return nil
}

func (w *batchWorkload) traced(e *env, rep *report) error {
	rec := rep.rec
	root := rec.start(noSpan, "bench", "traced_pass")
	if err := layerPass(e, rep, root, w.sp, e.sz.TraceQ, nil); err != nil {
		return err
	}
	// Recording cost on the workload's own path: the same groups with
	// the recorder on and off, alternating which goes first.
	var tracedUs, untracedUs []float64
	for i := 0; i < 8; i++ {
		for pass := 0; pass < 2; pass++ {
			rng := stream(e.seed+uint64(i), streamSchedule)
			if (i+pass)%2 == 0 {
				g, err := w.runGroup(rng, rec, root)
				if err != nil {
					return err
				}
				tracedUs = append(tracedUs, micros(g.wall))
			} else {
				g, err := w.runGroup(rng, nil, noSpan)
				if err != nil {
					return err
				}
				untracedUs = append(untracedUs, micros(g.wall))
			}
		}
	}
	finishTrace(rep, root, tracedUs, untracedUs)
	return nil
}

func (w *batchWorkload) close() {}
