package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/mvp"
	"mvptree/internal/shard"
)

// daemonTree is mvpserve's default tree shape (its -partitions,
// -leafcap and -pathlen defaults), so the in-process comparator is
// built exactly as the daemon builds its shards.
var daemonTree = mvp.Options{Partitions: 3, LeafCapacity: 50, PathLength: 5}

// fullBodies is how many range replies per phase are kept whole and
// checked item by item; the rest are checked by their count field, which
// costs the load generator nothing while the clock runs.
const fullBodies = 8

// serveWorkload is serve-mixed: the real mvpserve binary as a
// subprocess under an open-loop schedule over 2 keep-alive connections.
type serveWorkload struct {
	sp        *space[[]float64]
	d         *daemon
	rangeBody [][]byte
	knnBody   [][]byte
}

func newServeMixed() workload { return &serveWorkload{} }

func (w *serveWorkload) setup(e *env, rep *report) (err error) {
	// The daemon generates its own items from -dataseed; the same draw
	// here gives the oracle and the in-process comparator its data.
	items := dataset.UniformVectors(rand.New(rand.NewPCG(e.seed, 0)), e.sz.N, dim)
	queries := dataset.UniformQueries(stream(e.seed, streamQueries), e.sz.Pool, dim)
	if w.sp, err = vectorSpace(e.seed, items, queries, 0.02, daemonTree); err != nil {
		return err
	}
	for _, q := range queries {
		rb, err := json.Marshal(map[string]any{"query": q, "r": w.sp.radius})
		if err != nil {
			return err
		}
		kb, err := json.Marshal(map[string]any{"query": q, "k": w.sp.k})
		if err != nil {
			return err
		}
		w.rangeBody, w.knnBody = append(w.rangeBody, rb), append(w.knnBody, kb)
	}
	// Memory means the same on every workload: the live heap the index
	// adds, here of an in-process index built as the daemon builds its
	// own. (The daemon's resident set depends on when its collector last
	// ran; it is the per-layer serve.rss_mb.)
	before := liveHeap()
	idx, err := shard.New(items, w.sp.counter(), shard.MVP[[]float64](daemonTree),
		shard.Options{Shards: procs, Workers: procs, Seed: e.seed})
	if err != nil {
		return err
	}
	rep.set("mem_bytes_per_item", heapDelta(before, liveHeap())/float64(idx.Len()))

	// Set-up as the operator pays it: exec to first healthy reply, which
	// includes the index build and the snapshot save. The last daemon
	// started is the one that serves.
	for i := 0; i < e.sz.DaemonStarts; i++ {
		w.d.stop()
		var wall time.Duration
		if w.d, wall, err = startDaemon(e, e.sz.N, filepath.Join(e.tmp, fmt.Sprintf("serve-%d", i))); err != nil {
			return err
		}
		rep.setups = append(rep.setups, wall.Seconds())
	}
	return nil
}

func (w *serveWorkload) close() { w.d.stop() }

// request is one scheduled arrival.
type request struct {
	due   time.Duration // offset from the start of the phase
	query int
	knn   bool
}

// outcome is a request, its reply and its timing. Latency runs from the
// due time, so waiting for a free connection counts.
type outcome struct {
	request
	reply
	late    time.Duration // how long after its due time it was sent
	latency time.Duration
}

// schedule draws count arrivals of a Poisson process conditioned on its
// count — sorted uniform times over span — so every run offers exactly
// the same number of requests at the same mean rate.
func (w *serveWorkload) schedule(rng *rand.Rand, count int, span time.Duration) []request {
	reqs := make([]request, count)
	for i := range reqs {
		reqs[i] = request{
			due:   time.Duration(rng.Float64() * float64(span)),
			knn:   rng.Float64() >= 0.7,
			query: rng.IntN(len(w.sp.queries)),
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return reqs
}

// send issues one request; rec may be nil.
func (w *serveWorkload) send(rq request, keepRange bool, rec *recorder, parent int) reply {
	if rq.knn {
		id := rec.start(parent, "serve", "knn")
		defer rec.end(id)
		return w.d.post("/knn", w.knnBody[rq.query], true)
	}
	id := rec.start(parent, "serve", "range")
	defer rec.end(id)
	return w.d.post("/range", w.rangeBody[rq.query], keepRange)
}

// openLoop dispatches reqs at their due times over the two connections
// and returns every outcome plus the wall time to the last reply.
func (w *serveWorkload) openLoop(reqs []request, rec *recorder, parent int) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next, keptRange atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rq := reqs[i]
				if wait := rq.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				keep := !rq.knn && keptRange.Add(1) <= fullBodies
				rp := w.send(rq, keep, rec, parent)
				out[i] = outcome{request: rq, reply: rp, late: sent - rq.due, latency: time.Since(start) - rq.due}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// wireKNN is the part of a /knn reply the oracle needs.
type wireKNN struct {
	Neighbors []struct {
		Dist float64 `json:"dist"`
	} `json:"neighbors"`
}

// replyOK checks one reply against the oracle: kNN by its dist
// sequence, range by its count field and, when the body was kept, by
// the distances of the returned items.
func (w *serveWorkload) replyOK(o outcome) bool {
	if o.err != nil || o.status != http.StatusOK {
		return false
	}
	t := w.sp.truth[o.query]
	if o.knn {
		var wire wireKNN
		if json.Unmarshal(o.body, &wire) != nil || o.count != len(wire.Neighbors) {
			return false
		}
		nbrs := make([]index.Neighbor[[]float64], len(wire.Neighbors))
		for i, nb := range wire.Neighbors {
			nbrs[i].Dist = nb.Dist
		}
		return knnOK(t, nbrs)
	}
	if o.count != len(t.rangeDists) {
		return false
	}
	if o.body == nil {
		return true
	}
	var wire struct {
		Results [][]float64 `json:"results"`
	}
	return json.Unmarshal(o.body, &wire) == nil && rangeOK(t, w.sp.queries[o.query], wire.Results, w.sp.dist)
}

// check verifies every outcome and returns the latencies (µs) of the
// correct ones by kind.
func (w *serveWorkload) check(rep *report, phase string, outs []outcome) (rangeUs, knnUs []float64) {
	for i, o := range outs {
		rep.Attempted++
		switch {
		case !w.replyOK(o):
			rep.fail("%s request %d (query %d, knn=%v, status %d, err %v)", phase, i, o.query, o.knn, o.status, o.err)
		case o.knn:
			knnUs = append(knnUs, micros(o.latency))
		default:
			rangeUs = append(rangeUs, micros(o.latency))
		}
	}
	return rangeUs, knnUs
}

// lateP99 is how late the generator dispatched, p99 in µs.
func lateP99(outs []outcome) float64 {
	late := make([]float64, len(outs))
	for i, o := range outs {
		late[i] = micros(o.late)
	}
	return percentile(late, 0.99)
}

// phase runs an open-loop phase of d at the workload's rate.
func (w *serveWorkload) phase(e *env, rng *rand.Rand, d time.Duration, rec *recorder, parent int) ([]outcome, time.Duration) {
	count := max(1, int(e.sz.ServeRate*d.Seconds()))
	return w.openLoop(w.schedule(rng, count, d), rec, parent)
}

func (w *serveWorkload) measure(e *env, rep *report, d time.Duration) error {
	w.phase(e, stream(e.seed, streamWarm), e.sz.Warm, nil, noSpan)
	before, err := w.d.stats()
	if err != nil {
		return err
	}
	outs, wall := w.phase(e, stream(e.seed, streamSchedule), d, nil, noSpan)
	after, err := w.d.stats()
	if err != nil {
		return err
	}
	rangeUs, knnUs := w.check(rep, "open-loop", outs)
	// An open loop completes what it is offered, so its rate is the
	// correct replies over the wall time to the last one. The distance
	// count is the daemon's own, from GET /stats.
	rep.measured(rangeUs, knnUs, wall, after.Obs.Distances-before.Obs.Distances)
	rep.LateP99Us = lateP99(outs)
	return nil
}

func (w *serveWorkload) traced(e *env, rep *report) error {
	rec := rep.rec
	root := rec.start(noSpan, "bench", "traced_pass")
	seconds := func(share float64) time.Duration { return time.Duration(e.seconds * share * float64(time.Second)) }

	// A traced open-loop phase: tail latency, generator lateness, reply
	// size, and the daemon's own counters read at the same boundary.
	before, err := w.d.stats()
	if err != nil {
		return err
	}
	phase := rec.start(root, "loadgen", "open_loop")
	outs, _ := w.phase(e, stream(e.seed, streamSchedule), seconds(0.3), rec, phase)
	rec.end(phase)
	after, err := w.d.stats()
	if err != nil {
		return err
	}
	rangeUs, knnUs := w.check(rep, "traced open-loop", outs)
	rep.timing("serve.range_p99_us", percentile(rangeUs, 0.99), len(rangeUs))
	rep.timing("serve.knn_p99_us", percentile(knnUs, 0.99), len(knnUs))
	rep.timing("loadgen.late_p99_us", lateP99(outs), len(outs))
	var rangeBytes []float64
	for _, o := range outs {
		if !o.knn {
			rangeBytes = append(rangeBytes, float64(o.bytes))
		}
	}
	rep.set("serve.response_bytes_range", mean(rangeBytes))
	batches := after.Range.Batches + after.KNN.Batches - before.Range.Batches - before.KNN.Batches
	queries := after.Range.Queries + after.KNN.Queries - before.Range.Queries - before.KNN.Queries
	rep.set("serve.batches_per_query", ratio(float64(batches), float64(queries)))
	rep.set("serve.rejected", float64(after.Range.Rejected+after.KNN.Rejected-before.Range.Rejected-before.KNN.Rejected))
	rep.set("serve.cancelled", float64(after.Range.Cancelled+after.KNN.Cancelled-before.Range.Cancelled-before.KNN.Cancelled))

	// Every layer in process on identically built data, with the HTTP
	// hop interleaved per query: one request at a time, so the
	// difference to the in-process shard call is the serving stack's
	// own cost. The range request is sent a second time untraced for
	// the recording overhead.
	var tracedUs, untracedUs []float64
	var seq []outcome
	httpHop := func(parent, i int) {
		for pass := 0; pass < 2; pass++ {
			rq := request{query: i}
			if (i+pass)%2 == 0 {
				var rp reply
				tracedUs = append(tracedUs, timeCall(func() { rp = w.send(rq, i < fullBodies, rec, parent) }))
				seq = append(seq, outcome{request: rq, reply: rp})
			} else {
				untracedUs = append(untracedUs, timeCall(func() { w.send(rq, false, nil, noSpan) }))
			}
		}
		rq := request{query: i, knn: true}
		seq = append(seq, outcome{request: rq, reply: w.send(rq, false, rec, parent)})
	}
	if err := layerPass(e, rep, root, w.sp, e.sz.TraceQSlow, httpHop); err != nil {
		return err
	}
	w.check(rep, "sequential", seq)
	direct := func(op string) float64 {
		var us []float64
		for _, s := range rec.selectSpans("serve", op) {
			if s.Parent == root {
				us = append(us, float64(s.End-s.Start)/1e3)
			}
		}
		return median(us)
	}
	rep.set("serve.overhead_range_us", direct("range")-rep.Metrics["shard.range_us"])
	rep.set("serve.overhead_knn_us", direct("knn")-rep.Metrics["shard.knn_us"])

	// Capacity estimate: two clients back to back.
	closed := rec.start(root, "loadgen", "closed_loop")
	var wg sync.WaitGroup
	perClient := make([][]outcome, procs)
	start := time.Now()
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := stream(e.seed+uint64(c), streamSchedule)
			for time.Since(start) < seconds(0.15) {
				rq := request{query: rng.IntN(len(w.sp.queries)), knn: rng.Float64() >= 0.7}
				perClient[c] = append(perClient[c], outcome{request: rq, reply: w.send(rq, false, rec, closed)})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	rec.end(closed)
	done := 0
	for _, outs := range perClient {
		r, k := w.check(rep, "closed-loop", outs)
		done += len(r) + len(k)
	}
	rep.timing("serve.closed_loop_qps", float64(done)/wall.Seconds(), done)
	rss, err := w.d.rssBytes()
	if err != nil {
		return err
	}
	rep.set("serve.rss_mb", rss/(1<<20))

	// One reload of the snapshot under a 20 req/s probe.
	probe := rec.start(root, "loadgen", "reload_probe")
	span := seconds(0.15)
	reqs := w.schedule(stream(e.seed, streamWarm), max(1, int(20*span.Seconds())), span)
	var reloadErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(span / 5)
		id := rec.start(probe, "serve", "reload")
		defer rec.end(id)
		resp, err := http.Post(w.d.base+"/admin/reload", "application/json", nil)
		if err != nil {
			reloadErr = err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			reloadErr = fmt.Errorf("reload answered %d", resp.StatusCode)
		}
	}()
	outs, _ = w.openLoop(reqs, rec, probe)
	wg.Wait()
	rec.end(probe)
	if reloadErr != nil {
		return reloadErr
	}
	failedBefore := rep.Failed
	w.check(rep, "reload probe", outs)
	rep.set("serve.reload_failed", float64(rep.Failed-failedBefore))
	rep.set("serve.reload_s", mean(rec.micros("serve", "reload"))/1e6)

	finishTrace(rep, root, tracedUs, untracedUs)
	return nil
}
