package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"mvptree/internal/dataset"
	"mvptree/internal/dynamic"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// checkEvery is how many queries share one oracle check on
// dynamic-churn: the truth of a query over a changing set is a scan of
// the shadow live set at that moment, too dear to pay on every one.
const checkEvery = 8

// churnWorkload is dynamic-churn: a dynamic.Store over words under a
// sequential mix of 40 % range, 10 % kNN, 25 % insert and 25 % delete.
type churnWorkload struct {
	sp    *space[string] // the initial items, for the static layers
	spare []string       // held-out words the mix inserts
	store *dynamic.Store[string]
}

func newDynamicChurn() workload { return &churnWorkload{} }

func (w *churnWorkload) newStore(e *env) (*dynamic.Store[string], error) {
	return dynamic.New(w.sp.items, metric.Edit, dynamic.Options{Tree: w.sp.treeOpts(e.seed)})
}

func (w *churnWorkload) setup(e *env, rep *report) (err error) {
	// Distinct words, so delete-by-value removes exactly one item and
	// the shadow set stays a plain set.
	seen := make(map[string]bool)
	var words []string
	for _, s := range dataset.Words(stream(e.seed, streamData), 2*(e.sz.ChurnN+e.sz.ChurnSpare), wordOptions) {
		if !seen[s] && len(words) < e.sz.ChurnN+e.sz.ChurnSpare {
			seen[s] = true
			words = append(words, s)
		}
	}
	if len(words) < e.sz.ChurnN+e.sz.ChurnSpare {
		return fmt.Errorf("generated only %d distinct words", len(words))
	}
	items := words[:e.sz.ChurnN]
	w.spare = words[e.sz.ChurnN:]
	w.sp = wordSpace(items, dataset.SampleQueries(stream(e.seed, streamQueries), items, e.sz.Pool))
	w.store, err = buildRepeatedly(rep, e.sz.Builds, len(items), func() (*dynamic.Store[string], error) {
		return w.newStore(e)
	})
	return err
}

type opKind uint8

const (
	opRange opKind = iota
	opKNN
	opInsert
	opDelete
)

// churnOp is one executed operation and what the store returned.
type churnOp struct {
	kind    opKind
	word    string // the query point, or the word written
	items   []string
	nbrs    []index.Neighbor[string]
	removed int
	err     error
	ns      int64
	check   bool // a query whose answer is kept for the oracle
}

// mix draws the schedule: it owns the benchmark's view of which words
// are live (to pick delete targets) and which wait to be inserted.
type mix struct {
	rng     *rand.Rand
	queries []string
	live    []string
	spare   []string // a queue: deleted words rejoin it, so it never runs dry

	queriesSeen int
}

func (w *churnWorkload) newMix(rng *rand.Rand) *mix {
	return &mix{
		rng: rng, queries: w.sp.queries,
		live:  append([]string(nil), w.sp.items...),
		spare: append([]string(nil), w.spare...),
	}
}

// sampleForCheck keeps the answer of one query in checkEvery for the
// oracle and drops the others, so the log stays small.
func (m *mix) sampleForCheck(op *churnOp) {
	if op.kind != opRange && op.kind != opKNN {
		return
	}
	if m.queriesSeen++; m.queriesSeen%checkEvery == 0 {
		op.check = true
		return
	}
	op.items, op.nbrs = nil, nil
}

// next draws the next operation: its kind and the word it concerns.
func (m *mix) next() (opKind, string) {
	switch u := m.rng.Float64(); {
	case u < 0.40:
		return opRange, m.queries[m.rng.IntN(len(m.queries))]
	case u < 0.50:
		return opKNN, m.queries[m.rng.IntN(len(m.queries))]
	case u < 0.75 && len(m.spare) > 0 || len(m.live) == 0:
		word := m.spare[0]
		m.spare = m.spare[1:]
		m.live = append(m.live, word)
		return opInsert, word
	default:
		i := m.rng.IntN(len(m.live))
		word := m.live[i]
		m.live[i] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
		m.spare = append(m.spare, word)
		return opDelete, word
	}
}

// apply executes one operation on the store; rec may be nil.
func apply(store *dynamic.Store[string], kind opKind, word string, r float64, k int, rec *recorder, parent int) churnOp {
	op := churnOp{kind: kind, word: word}
	id := rec.start(parent, "dynamic", [...]string{"range", "knn", "insert", "delete"}[kind])
	t0 := time.Now()
	switch kind {
	case opRange:
		op.items = store.Range(word, r)
	case opKNN:
		op.nbrs = store.KNN(word, k)
	case opInsert:
		op.err = store.Insert(word)
	case opDelete:
		op.removed, op.err = store.Delete(word)
	}
	op.ns = int64(time.Since(t0))
	rec.end(id)
	return op
}

// runOps applies operations drawn from the mix one after another until
// the time is up, and returns them with the wall time they took; none is
// checked while the clock runs.
func (w *churnWorkload) runOps(store *dynamic.Store[string], m *mix, d time.Duration) ([]churnOp, time.Duration) {
	var out []churnOp
	start := time.Now()
	for time.Since(start) < d {
		kind, word := m.next()
		op := apply(store, kind, word, w.sp.radius, w.sp.k, nil, noSpan)
		m.sampleForCheck(&op)
		out = append(out, op)
	}
	return out, time.Since(start)
}

// verifyOps replays the op log against a shadow live set. Every write
// is checked (no error, exactly one item removed); one query in
// checkEvery is checked against a scan of the shadow set as it stood at
// that op, on both cores. live is the set before the first op; the
// final shadow set is returned, with the latencies of the correct
// queries by kind.
func (w *churnWorkload) verifyOps(rep *report, live []string, ops []churnOp) (rangeUs, knnUs []float64, shadow []string) {
	shadow = append([]string(nil), live...)
	at := make(map[string]int, len(shadow))
	for i, s := range shadow {
		at[s] = i
	}
	bad := make([]bool, len(ops))
	var wg sync.WaitGroup
	sem := make(chan struct{}, procs) // one slot per core
	for i, op := range ops {
		rep.Attempted++
		switch op.kind {
		case opInsert:
			bad[i] = op.err != nil
			at[op.word] = len(shadow)
			shadow = append(shadow, op.word)
		case opDelete:
			bad[i] = op.err != nil || op.removed != 1
			j := at[op.word]
			last := shadow[len(shadow)-1]
			shadow[j], at[last] = last, j
			shadow = shadow[:len(shadow)-1]
			delete(at, op.word)
		default:
			if !op.check {
				continue
			}
			snapshot := append([]string(nil), shadow...)
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				t := scanTruth(snapshot, op.word, metric.Edit, w.sp.radius, w.sp.k)
				if op.kind == opKNN {
					bad[i] = !knnOK(t, op.nbrs)
				} else {
					bad[i] = !rangeOK(t, op.word, op.items, metric.Edit)
				}
			}()
		}
	}
	wg.Wait()
	for i, op := range ops {
		switch {
		case bad[i]:
			rep.fail("op %d (kind %d, word %q, err %v)", i, op.kind, op.word, op.err)
		case op.kind == opRange:
			rangeUs = append(rangeUs, float64(op.ns)/1e3)
		case op.kind == opKNN:
			knnUs = append(knnUs, float64(op.ns)/1e3)
		}
	}
	return rangeUs, knnUs, shadow
}

func (w *churnWorkload) measure(e *env, rep *report, d time.Duration) error {
	m := w.newMix(stream(e.seed, streamSchedule))
	w.runOps(w.store, m, e.sz.Warm)
	liveAtStart := append([]string(nil), m.live...)
	dists := w.store.DistanceCount()
	ops, wall := w.runOps(w.store, m, d)
	dists = w.store.DistanceCount() - dists
	rangeUs, knnUs, shadow := w.verifyOps(rep, liveAtStart, ops)
	if w.store.Len() != len(shadow) {
		rep.fail("store holds %d items, the shadow set %d", w.store.Len(), len(shadow))
	}
	// The writes and the threshold rebuilds beside the queries are part
	// of the wall time and of the distance count, so a read gain that
	// costs writes shows here.
	rep.measured(rangeUs, knnUs, wall, dists)
	return nil
}

func (w *churnWorkload) traced(e *env, rep *report) error {
	rec := rep.rec
	root := rec.start(noSpan, "bench", "traced_pass")
	if err := layerPass(e, rep, root, w.sp, e.sz.TraceQSlow, nil); err != nil {
		return err
	}

	// A fixed number of operations on a fresh store, one span each, so
	// the rebuild count repeats exactly for a seed.
	store, err := w.newStore(e)
	if err != nil {
		return err
	}
	m := w.newMix(stream(e.seed, streamSchedule))
	ops := make([]churnOp, 0, e.sz.ChurnTraceOp)
	var insertUs, deleteUs, buffered []float64
	rebuildMaxNs := int64(0)
	for i := 0; i < e.sz.ChurnTraceOp; i++ {
		kind, word := m.next()
		before := store.Rebuilds()
		op := apply(store, kind, word, w.sp.radius, w.sp.k, rec, root)
		m.sampleForCheck(&op)
		ops = append(ops, op)
		switch kind {
		case opInsert:
			insertUs = append(insertUs, float64(op.ns)/1e3)
		case opDelete:
			deleteUs = append(deleteUs, float64(op.ns)/1e3)
		}
		if store.Rebuilds() > before {
			rebuildMaxNs = max(rebuildMaxNs, op.ns)
		}
		buffered = append(buffered, float64(store.Buffered()))
	}
	_, _, shadow := w.verifyOps(rep, w.sp.items, ops)
	rep.set("dynamic.write_mean_us", (sum(insertUs)+sum(deleteUs))/float64(len(insertUs)+len(deleteUs)))
	rep.timing("dynamic.insert_p50_us", median(insertUs), len(insertUs))
	rep.timing("dynamic.delete_p50_us", median(deleteUs), len(deleteUs))
	rep.timing("dynamic.delete_p99_us", percentile(deleteUs, 0.99), len(deleteUs))
	rep.set("dynamic.rebuilds", float64(store.Rebuilds()-1))
	rep.set("dynamic.rebuild_max_ms", float64(rebuildMaxNs)/1e6)
	rep.set("dynamic.buffered_mean", mean(buffered))

	// The store against a static tree over the same final live set,
	// and the recording cost on the store's own range path.
	static, err := mvp.New(shadow, metric.NewCounter(metric.Edit), w.sp.treeOpts(e.seed))
	if err != nil {
		return err
	}
	var storeUs, tracedUs []float64
	for i, q := range w.sp.queries[:min(e.sz.TraceQSlow, len(w.sp.queries))] {
		for pass := 0; pass < 3; pass++ {
			switch (i + pass) % 3 {
			case 0:
				storeUs = append(storeUs, timeCall(func() { store.Range(q, w.sp.radius) }))
			case 1:
				id := rec.start(root, "mvp", "range_static")
				static.Range(q, w.sp.radius)
				rec.end(id)
			case 2:
				tracedUs = append(tracedUs, timeCall(func() {
					id := rec.start(root, "dynamic", "range_settled")
					store.Range(q, w.sp.radius)
					rec.end(id)
				}))
			}
		}
	}
	rep.set("dynamic.range_vs_static", ratio(median(tracedUs), median(rec.micros("mvp", "range_static"))))
	finishTrace(rep, root, tracedUs, storeUs)
	return nil
}

func (w *churnWorkload) close() {}
