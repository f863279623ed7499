package build

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvptree/internal/metric"
)

func absDiff(a, b float64) float64 { return math.Abs(a - b) }

func TestMeasureMatchesSerialAndSettlesCounter(t *testing.T) {
	items := make([]float64, 3000)
	for i := range items {
		items[i] = float64(i) * 0.5
	}
	for _, workers := range []int{0, 1, 4, 16} {
		ctr := metric.NewCounter(absDiff)
		b := Start(ctr, Options{Workers: workers})
		out := make([]float64, len(items))
		b.Measure(100, func(i int) float64 { return items[i] }, out)
		for i := range out {
			if want := absDiff(items[i], 100); out[i] != want {
				t.Fatalf("workers=%d: out[%d] = %g, want %g", workers, i, out[i], want)
			}
		}
		if got := ctr.Count(); got != int64(len(items)) {
			t.Errorf("workers=%d: counter = %d, want %d", workers, got, len(items))
		}
		s := b.Finish()
		if s.Distances != int64(len(items)) {
			t.Errorf("workers=%d: Stats.Distances = %d, want %d", workers, s.Distances, len(items))
		}
		if s.Workers != max(workers, 1) {
			t.Errorf("workers=%d: Stats.Workers = %d", workers, s.Workers)
		}
	}
}

func TestMeasureEmptyAndSmallBatches(t *testing.T) {
	ctr := metric.NewCounter(absDiff)
	b := Start(ctr, Options{Workers: 8})
	defer b.Finish()
	b.Measure(1, func(i int) float64 { t.Fatal("item called for empty batch"); return 0 }, nil)
	out := make([]float64, 3) // below MeasureThreshold: serial path
	b.Measure(1, func(i int) float64 { return float64(i) }, out)
	if ctr.Count() != 3 {
		t.Errorf("counter = %d, want 3", ctr.Count())
	}
}

func TestForkRunsEveryTaskExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		ctr := metric.NewCounter(absDiff)
		b := Start(ctr, Options{Workers: workers})
		defer b.Finish()
		const n = 500
		ran := make([]atomic.Int32, n)
		b.Fork(n, func(i int) { ran[i].Add(1) })
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForkNestedDoesNotDeadlock(t *testing.T) {
	ctr := metric.NewCounter(absDiff)
	b := Start(ctr, Options{Workers: 4})
	defer b.Finish()
	var total atomic.Int64
	b.Fork(8, func(i int) {
		b.Fork(8, func(j int) {
			b.Fork(4, func(k int) { total.Add(1) })
		})
	})
	if got := total.Load(); got != 8*8*4 {
		t.Fatalf("nested fork ran %d leaf tasks, want %d", got, 8*8*4)
	}
}

func TestForkBoundsConcurrency(t *testing.T) {
	const workers = 4
	ctr := metric.NewCounter(absDiff)
	b := Start(ctr, Options{Workers: workers})
	defer b.Finish()
	var cur, peak atomic.Int64
	var mu sync.Mutex
	b.Fork(64, func(i int) {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		for j := 0; j < 1000; j++ {
			_ = splitmix64(uint64(j))
		}
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, worker bound is %d", p, workers)
	}
}

// gate is a set of tasks that say when they start and then wait to be
// let go, so a test decides which task finishes when.
type gate struct{ started, release []chan struct{} }

func newGate(n int) gate {
	g := gate{make([]chan struct{}, n), make([]chan struct{}, n)}
	for i := range g.started {
		g.started[i], g.release[i] = make(chan struct{}), make(chan struct{})
	}
	return g
}

func (g gate) task(i int) {
	close(g.started[i])
	<-g.release[i]
}

// await fails the test if ch is not closed soon; it reports whether it was.
func await(t *testing.T, ch chan struct{}, what string) bool {
	t.Helper()
	select {
	case <-ch:
		return true
	case <-time.After(5 * time.Second):
		t.Errorf("%s: not within 5 s", what)
		return false
	}
}

// TestForkClaimsTheNextTaskWhenOneFinishes holds Fork to its cursor: with
// two workers and three tasks, whoever finishes task 0 takes task 2 while
// task 1 is still running — before, a helper that finished went home and
// task 2 waited for the forker to come back from task 1 — and no more
// than Workers tasks are ever in flight.
func TestForkClaimsTheNextTaskWhenOneFinishes(t *testing.T) {
	b := Start(metric.NewCounter(absDiff), Options{Workers: 2})
	defer b.Finish()
	g := newGate(3)
	var inFlight atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Fork(3, func(i int) {
			if n := inFlight.Add(1); n > 2 {
				t.Errorf("%d tasks in flight, Workers is 2", n)
			}
			g.task(i)
			inFlight.Add(-1)
		})
	}()
	if await(t, g.started[0], "task 0 starting") && await(t, g.started[1], "task 1 starting") {
		close(g.release[0])
		await(t, g.started[2], "task 2 starting while task 1 still runs")
	} else {
		close(g.release[0])
	}
	close(g.release[1])
	close(g.release[2])
	await(t, done, "Fork returning")
}

// goroutineID reads the running goroutine's number off its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestForkHelperHandsItsTokenToANestedFork: a helper that finds no task
// left gives its token back at once, so a Fork inside the last task still
// running — on the forker — gets a helper of its own instead of running
// its tasks one after the other.
func TestForkHelperHandsItsTokenToANestedFork(t *testing.T) {
	b := Start(metric.NewCounter(absDiff), Options{Workers: 2})
	defer b.Finish()
	outer, inner := newGate(2), newGate(2)
	forkers := make(chan int, 1) // the index of the task the forker took
	done := make(chan struct{})
	go func() {
		defer close(done)
		forker := goroutineID()
		b.Fork(2, func(i int) {
			if goroutineID() != forker {
				outer.task(i)
				return
			}
			forkers <- i
			outer.task(i)
			b.Fork(2, inner.task)
		})
	}()
	mine := -1
	select {
	case mine = <-forkers:
	case <-time.After(5 * time.Second):
		t.Fatal("the forker took no task within 5 s")
	}
	if await(t, outer.started[1-mine], "the helper's task starting") {
		close(outer.release[1-mine]) // it ends, and no task is left for the helper
		for deadline := time.Now().Add(5 * time.Second); len(b.sem) > 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Error("the helper kept its token for 5 s with nothing left to claim")
				break
			}
		}
	}
	close(outer.release[mine])
	// Both nested tasks are running at once only if the nested Fork found
	// the token.
	await(t, inner.started[0], "nested task 0 starting")
	await(t, inner.started[1], "nested task 1 starting beside it")
	close(inner.release[0])
	close(inner.release[1])
	await(t, done, "Fork returning")
}

// TestFinishStopsTheHelpers: the pool's helpers live from Start to
// Finish, and a build leaves no goroutine behind.
func TestFinishStopsTheHelpers(t *testing.T) {
	before := runtime.NumGoroutine()
	b := Start(metric.NewCounter(absDiff), Options{Workers: 8})
	if n := runtime.NumGoroutine(); n != before+7 {
		t.Errorf("%d goroutines after Start with 8 workers, want %d", n, before+7)
	}
	b.Fork(64, func(int) {})
	b.Finish()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after Finish, %d before Start", runtime.NumGoroutine(), before)
		}
	}
}

func TestNodeTracksCountAndDepth(t *testing.T) {
	ctr := metric.NewCounter(absDiff)
	b := Start(ctr, Options{Workers: 8})
	b.Fork(100, func(i int) { b.Node(i % 7) })
	s := b.Finish()
	if s.Nodes != 100 {
		t.Errorf("Nodes = %d, want 100", s.Nodes)
	}
	if s.MaxDepth != 6 {
		t.Errorf("MaxDepth = %d, want 6", s.MaxDepth)
	}
}

func TestRNGDeterministicSplitting(t *testing.T) {
	root := NewRNG(42, 0xabc)
	if NewRNG(42, 0xabc) != root {
		t.Fatal("NewRNG not deterministic")
	}
	if NewRNG(43, 0xabc) == root || NewRNG(42, 0xabd) == root {
		t.Fatal("seed or salt ignored")
	}
	a, b := root.Child(0), root.Child(1)
	if a == b {
		t.Fatal("distinct children share a key")
	}
	if root.Child(0) != a {
		t.Fatal("Child not deterministic")
	}
	// Identical positions draw identical sequences, independent of any
	// other RNG's use.
	r1 := root.Child(3).Rand()
	_ = root.Child(7).Rand().IntN(1000)
	r2 := root.Child(3).Rand()
	for i := 0; i < 100; i++ {
		if r1.IntN(1<<30) != r2.IntN(1<<30) {
			t.Fatal("same position produced different draws")
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Workers: -1}).Validate("pkg"); err == nil {
		t.Error("negative Workers accepted")
	}
	for _, w := range []int{0, 1, 32} {
		if err := (Options{Workers: w}).Validate("pkg"); err != nil {
			t.Errorf("Workers=%d rejected: %v", w, err)
		}
	}
	if (Options{}).WorkerCount() != 1 || (Options{Workers: 5}).WorkerCount() != 5 {
		t.Error("WorkerCount normalization wrong")
	}
}
