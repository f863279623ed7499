package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mvptree/internal/build"
	"mvptree/internal/cascade"
	"mvptree/internal/index"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/obs"
	"mvptree/internal/qexec"
	"mvptree/internal/quant"
	"mvptree/internal/shard"
	"mvptree/internal/vptree"
)

// space is a workload's generated input: items, a query pool, the
// metric and the query parameters, plus the linear-scan truth for every
// pooled query.
type space[T any] struct {
	items   []T
	queries []T
	dist    metric.DistanceFunc[T]
	radius  float64
	k       int
	tree    mvp.Options // the workload's mvp-tree shape
	truth   []truth

	probes      []kernelProbe[T] // the metric kernels that exist for T
	quantizable bool             // vectors: the SQ8 filter applies
	enc         func(T) ([]byte, error)
	dec         func([]byte) (T, error)
}

// kernelProbe times one distance kernel in a tight loop.
type kernelProbe[T any] struct {
	op      string // metric name: metric.<op>
	per     int    // distances per call
	bounded bool   // the early-abandoning kernel the leaf scans use
	run     func(q T)
}

func (sp *space[T]) counter() *metric.Counter[T] { return metric.NewCounter(sp.dist) }

func (sp *space[T]) treeOpts(seed uint64) mvp.Options {
	o := sp.tree
	o.Build = build.Options{Workers: procs, Seed: seed}
	return o
}

// statCounts attaches a query's SearchStats to its span.
func statCounts(rec *recorder, id int, st index.SearchStats) {
	rec.count(id, "distances", float64(st.Distances()))
	rec.count(id, "nodes", float64(st.NodesVisited))
	rec.count(id, "leaves", float64(st.LeavesVisited))
	rec.count(id, "candidates", float64(st.Candidates))
	rec.count(id, "by_d", float64(st.FilteredByD))
	rec.count(id, "by_path", float64(st.FilteredByPath))
}

// liveHeap is the live heap after two collections: the second empties
// what sync.Pool kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapDelta is after − before as a float, 0 when the heap shrank.
func heapDelta(before, after uint64) float64 {
	if after < before {
		return 0
	}
	return float64(after - before)
}

// dirBytes sums the sizes of the files directly inside dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// layerPass is the traced pass shared by every workload: it builds each
// layer over the workload's own items and replays the first tq pooled
// queries through every layer's public entry point in turn, one span
// per call, interleaved per query so noise hits all layers alike. Every
// answer is checked against the oracle. perQuery, when non-nil, is the
// workload's own traced path for query i (the HTTP hop on serve-mixed).
func layerPass[T any](e *env, rep *report, root int, sp *space[T], tq int, perQuery func(parent, i int)) error {
	rec := rep.rec
	n := float64(len(sp.items))
	tq = min(tq, len(sp.queries))
	qs := sp.queries[:tq]
	r, k := sp.radius, sp.k

	// timed runs fn inside a span.
	timed := func(layer, op string, fn func() error) error {
		id := rec.start(root, layer, op)
		err := fn()
		rec.end(id)
		return err
	}
	seconds := func(layer, op string) float64 { return mean(rec.micros(layer, op)) / 1e6 }

	// Construction, one span per layer.
	var plain *mvp.Tree[T]
	var bs build.Stats
	if err := timed("build", "mvp", func() (err error) {
		plain, bs, err = mvp.NewWithStats(sp.items, sp.counter(), sp.treeOpts(e.seed))
		return err
	}); err != nil {
		return err
	}
	rep.set("build.mvp_s", seconds("build", "mvp"))
	rep.set("build.distances", float64(bs.Distances))
	rep.set("build.ns_per_item", seconds("build", "mvp")*1e9/n)

	scan := linear.New(sp.items, sp.counter())
	var vp *vptree.Tree[T]
	if err := timed("build", "vptree", func() (err error) {
		vp, err = vptree.New(sp.items, sp.counter(), vptree.Options{
			Build: build.Options{Workers: procs, Seed: e.seed}, Order: 3,
		})
		return err
	}); err != nil {
		return err
	}

	// Each optional filter is switched on over its own copy of the
	// workload's tree, so the plain tree stays the comparator.
	var cas, sq8 *mvp.Tree[T]
	if err := timed("build", "mvp_for_cascade", func() (err error) {
		cas, err = mvp.New(sp.items, sp.counter(), sp.treeOpts(e.seed))
		return err
	}); err != nil {
		return err
	}
	if err := timed("cascade", "enable", func() error {
		return cas.EnableCascade(cascade.Options{Workers: procs})
	}); err != nil {
		return err
	}
	rep.set("cascade.enable_s", seconds("cascade", "enable"))
	quantObs := obs.NewObserver(1)
	if sp.quantizable {
		if err := timed("build", "mvp_for_quant", func() (err error) {
			sq8, err = mvp.New(sp.items, sp.counter(), sp.treeOpts(e.seed))
			return err
		}); err != nil {
			return err
		}
		before := liveHeap()
		if err := timed("quant", "enable", func() error { return sq8.EnableQuantize(quant.SQ8) }); err != nil {
			return err
		}
		rep.set("quant.bytes_per_item", heapDelta(before, liveHeap())/n)
		rep.set("quant.enable_s", seconds("quant", "enable"))
		sq8.SetObserver(quantObs)
	}

	be := shard.MVP[T](sp.tree)
	var sharded *shard.Index[T]
	if err := timed("shard", "build", func() (err error) {
		sharded, err = shard.New(sp.items, sp.counter(), be, shard.Options{Shards: procs, Workers: procs, Seed: e.seed})
		return err
	}); err != nil {
		return err
	}
	rep.set("shard.build_s", seconds("shard", "build"))
	snap := filepath.Join(e.tmp, "snapshot")
	if err := timed("shard", "savedir", func() error { return sharded.SaveDir(snap, be, sp.enc) }); err != nil {
		return err
	}
	size, err := dirBytes(snap)
	if err != nil {
		return err
	}
	var loaded *shard.Index[T]
	if err := timed("shard", "loaddir", func() (err error) {
		loaded, err = shard.LoadDir(snap, sp.counter(), be, sp.dec)
		return err
	}); err != nil {
		return err
	}
	if loaded.Len() != len(sp.items) {
		return fmt.Errorf("snapshot reloaded %d of %d items", loaded.Len(), len(sp.items))
	}
	rep.set("shard.savedir_s", seconds("shard", "savedir"))
	rep.set("shard.loaddir_s", seconds("shard", "loaddir"))
	rep.set("shard.snapshot_bytes_per_item", float64(size)/n)

	// checkRange and checkKNN verify one traced answer after its span closed.
	checkRange := func(layer string, i int, got []T) {
		rep.Attempted++
		if !rangeOK(sp.truth[i], qs[i], got, sp.dist) {
			rep.fail("%s range query %d", layer, i)
		}
	}
	checkKNN := func(layer string, i int, got []index.Neighbor[T]) {
		rep.Attempted++
		if !knnOK(sp.truth[i], got) {
			rep.fail("%s knn query %d", layer, i)
		}
	}
	// both replays query i as a range and a kNN query through one
	// index; mode prefixes the span's op.
	both := func(layer, mode string, idx index.StatsIndex[T], i int) {
		id := rec.start(root, layer, mode+"range")
		items, st := idx.RangeWithStats(qs[i], r)
		rec.end(id)
		statCounts(rec, id, st)
		checkRange(layer, i, items)
		id = rec.start(root, layer, mode+"knn")
		nbrs, st := idx.KNNWithStats(qs[i], k)
		rec.end(id)
		statCounts(rec, id, st)
		checkKNN(layer, i, nbrs)
	}

	observer := obs.NewObserver(1)
	for i, q := range qs {
		for _, p := range sp.probes {
			id := rec.start(root, "metric", p.op)
			p.run(q)
			rec.end(id)
		}
		both("linear", "", scan, i)
		both("mvp", "", plain, i)
		both("vptree", "", vp, i)
		id := rec.start(root, "cascade", "range")
		items, st := cas.RangeWithStats(q, r)
		rec.end(id)
		statCounts(rec, id, st)
		checkRange("cascade", i, items)
		if sq8 != nil {
			both("quant", "sq8_", sq8, i)
		}
		// The observed and the bare call alternate order so neither
		// always runs on the cache the other warmed.
		for pass := 0; pass < 2; pass++ {
			op := "range_bare"
			if (i+pass)%2 == 1 {
				op = "range_observed"
				plain.SetObserver(observer)
			}
			id := rec.start(root, "obs", op)
			items := plain.Range(q, r)
			rec.end(id)
			plain.SetObserver(nil)
			checkRange("obs", i, items)
		}
		both("shard", "", sharded, i)
		if perQuery != nil {
			perQuery(root, i)
		}
	}

	// The executor answers whole groups, so it is interleaved per
	// group of 64 — the shared-traversal batch size under test.
	for lo := 0; lo < tq; lo += 64 {
		hi := min(lo+64, tq)
		group := qs[lo:hi]
		id := rec.start(root, "qexec", "range_bare")
		for _, q := range group {
			plain.RangeWithStats(q, r)
		}
		rec.end(id)
		for _, c := range []struct {
			op             string
			workers, batch int
		}{{"range_w1b1", 1, 1}, {"range_w1b64", 1, 64}, {"range_w2b1", 2, 1}} {
			id := rec.start(root, "qexec", c.op)
			res, _, err := qexec.RunRange[T](plain, group, r, qexec.Options{Workers: c.workers, Batch: c.batch})
			rec.end(id)
			if err != nil {
				return err
			}
			for j := range res {
				checkRange("qexec/"+c.op, lo+j, res[j])
			}
		}
		for _, c := range []struct {
			op    string
			batch int
		}{{"knn_w1b1", 1}, {"knn_w1b64", 64}} {
			id := rec.start(root, "qexec", c.op)
			res, _, err := qexec.RunKNN[T](plain, group, k, qexec.Options{Workers: 1, Batch: c.batch})
			rec.end(id)
			if err != nil {
				return err
			}
			for j := range res {
				checkKNN("qexec/"+c.op, lo+j, res[j])
			}
		}
	}

	// Allocations per range query, counted outside any span.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range qs[:min(16, tq)] {
		plain.Range(q, r)
	}
	runtime.ReadMemStats(&after)
	rep.set("mvp.allocs_per_query", float64(after.Mallocs-before.Mallocs)/float64(min(16, tq)))

	// The ledger, derived from the spans and the counts on them.
	med := func(layer, op string) float64 { return median(rec.micros(layer, op)) }
	total := func(layer, op string) float64 { return sum(rec.micros(layer, op)) }
	distFrac := func(layer, op string) float64 { return rec.sum(layer, op, "distances") / (float64(tq) * n) }
	boundedNs := 0.0
	for _, p := range sp.probes {
		ns := med("metric", p.op) * 1e3 / float64(p.per)
		rep.timing("metric."+p.op, ns, tq)
		if p.bounded {
			boundedNs = ns
		}
	}
	rep.timing("linear.range_us", med("linear", "range"), tq)
	rep.timing("linear.knn_us", med("linear", "knn"), tq)
	rep.set("linear.ns_per_candidate", med("linear", "range")*1e3/n)

	rep.timing("mvp.range_us", med("mvp", "range"), tq)
	rep.timing("mvp.knn_us", med("mvp", "knn"), tq)
	rep.set("mvp.range_dist_frac", distFrac("mvp", "range"))
	rep.set("mvp.knn_dist_frac", distFrac("mvp", "knn"))
	rep.set("mvp.range_vs_scan", ratio(med("mvp", "range"), med("linear", "range")))
	rep.set("mvp.knn_vs_scan", ratio(med("mvp", "knn"), med("linear", "knn")))
	pooled := func(key string) float64 { return rec.sum("mvp", "range", key) + rec.sum("mvp", "knn", key) }
	rep.set("mvp.nodes_per_query", pooled("nodes")/float64(2*tq))
	rep.set("mvp.leaves_per_query", pooled("leaves")/float64(2*tq))
	rep.set("mvp.candidates_per_query", pooled("candidates")/float64(2*tq))
	rep.set("mvp.filtered_by_d_frac", ratio(pooled("by_d"), pooled("candidates")))
	rep.set("mvp.filtered_by_path_frac", ratio(pooled("by_path"), pooled("candidates")))
	rep.set("mvp.ns_per_distance", ratio((total("mvp", "range")+total("mvp", "knn"))*1e3, pooled("distances")))
	rep.set("mvp.overhead_us", med("mvp", "range")-rec.sum("mvp", "range", "distances")/float64(tq)*boundedNs/1e3)

	rep.timing("vptree.range_us", med("vptree", "range"), tq)
	rep.timing("vptree.knn_us", med("vptree", "knn"), tq)
	rep.set("vptree.range_dist_frac", distFrac("vptree", "range"))
	rep.set("vptree.knn_dist_frac", distFrac("vptree", "knn"))

	rep.timing("cascade.range_us", med("cascade", "range"), tq)
	rep.set("cascade.range_dist_frac", distFrac("cascade", "range"))
	if sq8 != nil {
		rep.timing("quant.sq8_range_us", med("quant", "sq8_range"), tq)
		rep.timing("quant.sq8_knn_us", med("quant", "sq8_knn"), tq)
		snap := quantObs.Snapshot()
		rep.set("quant.sq8_survivor_frac", 1-ratio(float64(snap.Search.FilteredByQuantized), float64(snap.Search.Computed)))
	}
	rep.timing("obs.observer_overhead_us", med("obs", "range_observed")-med("obs", "range_bare"), tq)

	rep.timing("shard.range_us", med("shard", "range"), tq)
	rep.timing("shard.knn_us", med("shard", "knn"), tq)
	rep.set("shard.merge_overhead_us", med("shard", "range")-med("mvp", "range"))
	rep.set("shard.knn_dist_frac", distFrac("shard", "knn"))

	rep.set("qexec.overhead_us", (total("qexec", "range_w1b1")-total("qexec", "range_bare"))/float64(tq))
	rep.set("qexec.batch64_speedup_range", ratio(total("qexec", "range_w1b1"), total("qexec", "range_w1b64")))
	rep.set("qexec.batch64_speedup_knn", ratio(total("qexec", "knn_w1b1"), total("qexec", "knn_w1b64")))
	rep.set("qexec.workers2_speedup", ratio(total("qexec", "range_w1b1"), total("qexec", "range_w2b1")))
	return nil
}

// finishTrace closes a workload's root span and reports what recording
// cost: tracedUs and untracedUs are the same calls timed with the
// recorder on and off.
func finishTrace(rep *report, root int, tracedUs, untracedUs []float64) {
	rep.rec.end(root)
	rep.timing("bench.trace_overhead_frac", ratio(median(tracedUs), median(untracedUs)), len(tracedUs))
}

// timeCall runs fn and returns its wall time in microseconds.
func timeCall(fn func()) float64 {
	t0 := time.Now()
	fn()
	return micros(time.Since(t0))
}
