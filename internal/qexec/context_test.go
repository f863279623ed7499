package qexec

import (
	"context"
	"errors"
	"testing"
	"time"

	"mvptree/internal/index"
	"mvptree/internal/obs"
)

// slowIndex wraps a Searcher, sleeping per query so a short context
// deadline reliably lands mid-batch.
type slowIndex struct {
	index.Searcher[[]float64]
	delay time.Duration
}

func (s slowIndex) Search(index.Query[[]float64]) index.Result[[]float64] {
	time.Sleep(s.delay)
	return index.Result[[]float64]{}
}

func TestContextCancelStopsBatch(t *testing.T) {
	tree, _, queries := testTree(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts: nothing should run
	res, stats, err := RunRange[[]float64](tree, queries, 0.5, Options{Workers: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Answered != 0 {
		t.Fatalf("Answered = %d, want 0", stats.Answered)
	}
	if len(res) != len(queries) {
		t.Fatalf("results slice length %d, want %d (partially filled)", len(res), len(queries))
	}
}

func TestContextTimeoutMidBatch(t *testing.T) {
	tree, _, queries := testTree(t)
	slow := slowIndex{Searcher: tree, delay: 5 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 12*time.Millisecond)
	defer cancel()
	_, stats, err := RunRange[[]float64](slow, queries, 0.5, Options{Workers: 1, Context: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if stats.Answered == 0 || stats.Answered >= stats.Queries {
		t.Fatalf("Answered = %d of %d, want a partial batch", stats.Answered, stats.Queries)
	}
	// Without a deadline the same batch completes with no error.
	if _, stats, err := RunRange[[]float64](tree, queries, 0.5, Options{Workers: 2, Context: context.Background()}); err != nil || stats.Answered != stats.Queries {
		t.Fatalf("uncancelled run: err=%v Answered=%d/%d", err, stats.Answered, stats.Queries)
	}
}

// gatedIndex blocks selected queries on per-query gates and signals
// entry, so a test can park workers mid-query deterministically.
// Queries are told apart by their first coordinate.
type gatedIndex struct {
	index.Searcher[[]float64]
	gates   map[float64]chan struct{} // q[0] → gate the query waits on
	entered chan float64              // signals q[0] on query entry
}

func (g gatedIndex) Search(req index.Query[[]float64]) index.Result[[]float64] {
	q := req.Point
	g.entered <- q[0]
	if gate, ok := g.gates[q[0]]; ok {
		<-gate
	}
	return index.Result[[]float64]{Items: [][]float64{q}, Stats: index.SearchStats{Results: 1}}
}

// A cancelled multi-worker batch leaves non-contiguous filled slots:
// each worker stops at its own next pickup, so answered and unanswered
// slots interleave. Stats.AnsweredMask must tell them apart exactly.
//
// The schedule is pinned, not raced: with Workers=2, worker 0 owns the
// even slots and worker 1 the odd slots. Worker 0 parks inside query 0;
// worker 1 answers 1, then parks inside query 3. Once both are parked
// the context is cancelled and the gates open: the in-flight queries
// (0 and 3) finish — the contract lets traversals run to completion —
// and neither worker picks up again. Answered must be exactly {0, 1, 3}:
// slot 2 is a hole between answered slots 1 and 3.
func TestCancelledBatchAnsweredMask(t *testing.T) {
	tree, _, treeQueries := testTree(t)
	const n = 8
	queries := make([][]float64, n)
	for i := range queries {
		queries[i] = []float64{float64(i), 0}
	}
	g := gatedIndex{
		Searcher: tree,
		gates: map[float64]chan struct{}{
			0: make(chan struct{}),
			3: make(chan struct{}),
		},
		entered: make(chan float64, n),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		res   [][][]float64
		stats Stats
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		res, stats, err := RunRange[[]float64](g, queries, 0.5, Options{Workers: 2, Context: ctx})
		done <- outcome{res, stats, err}
	}()

	// Wait until queries 0, 1 and 3 have entered (1 completes on its
	// own; 0 and 3 park on their gates), then cancel and release.
	seen := map[float64]bool{}
	for len(seen) < 3 {
		seen[<-g.entered] = true
	}
	if !seen[0] || !seen[1] || !seen[3] {
		t.Fatalf("unexpected entry set %v, want {0,1,3}", seen)
	}
	cancel()
	close(g.gates[0])
	close(g.gates[3])

	out := <-done
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", out.err)
	}
	want := map[int]bool{0: true, 1: true, 3: true}
	if len(out.stats.AnsweredMask) != n {
		t.Fatalf("mask length %d, want %d", len(out.stats.AnsweredMask), n)
	}
	answered := 0
	for i, ok := range out.stats.AnsweredMask {
		if ok != want[i] {
			t.Fatalf("AnsweredMask[%d] = %v, want %v (mask %v)", i, ok, want[i], out.stats.AnsweredMask)
		}
		if ok {
			answered++
			if len(out.res[i]) != 1 || out.res[i][0][0] != float64(i) {
				t.Fatalf("answered slot %d holds wrong result %v", i, out.res[i])
			}
		} else if out.res[i] != nil {
			t.Fatalf("unanswered slot %d is non-nil", i)
		}
	}
	if answered != out.stats.Answered {
		t.Fatalf("mask counts %d answered, Stats.Answered = %d", answered, out.stats.Answered)
	}
	// The defining property: the filled slots are NOT a contiguous
	// prefix — slot 2 is a hole between answered slots 1 and 3 — so a
	// caller cannot use Stats.Answered as a cut-off index.
	if out.stats.AnsweredMask[2] || !out.stats.AnsweredMask[3] {
		t.Fatalf("expected a non-contiguous fill: mask %v", out.stats.AnsweredMask)
	}

	// A completed run reports an all-true mask.
	_, stats, err := RunRange[[]float64](tree, treeQueries, 0.5, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range stats.AnsweredMask {
		if !ok {
			t.Fatalf("completed run: AnsweredMask[%d] false", i)
		}
	}
}

// Attaching one Observer to both the index hooks and the executor would
// record every query twice; the executor must refuse the run instead.
func TestSharedObserverRefused(t *testing.T) {
	tree, _, queries := testTree(t)
	o := obs.NewObserver(2)
	tree.SetObserver(o)
	defer tree.SetObserver(nil)
	if _, _, err := RunRange[[]float64](tree, queries, 0.5, Options{Workers: 2, Observer: o}); !errors.Is(err, ErrSharedObserver) {
		t.Fatalf("range err = %v, want ErrSharedObserver", err)
	}
	if _, _, err := RunKNN[[]float64](tree, queries, 5, Options{Workers: 2, Observer: o}); !errors.Is(err, ErrSharedObserver) {
		t.Fatalf("knn err = %v, want ErrSharedObserver", err)
	}
	// A distinct executor observer is fine, and both observers record.
	o2 := obs.NewObserver(2)
	if _, _, err := RunRange[[]float64](tree, queries, 0.5, Options{Workers: 2, Observer: o2}); err != nil {
		t.Fatalf("distinct observer refused: %v", err)
	}
	if s := o2.Snapshot(); s.Queries != int64(len(queries)) {
		t.Fatalf("executor observer saw %d queries, want %d", s.Queries, len(queries))
	}
	if s := o.Snapshot(); s.Queries != int64(len(queries)) {
		t.Fatalf("index observer saw %d queries, want %d", s.Queries, len(queries))
	}
}
