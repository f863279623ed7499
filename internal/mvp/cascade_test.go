package mvp

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/index"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

var cascadeOpts = Options{Partitions: 3, LeafCapacity: 40, PathLength: 4, Build: Build{Seed: 7}}

// newCascadePair builds two identical trees over the same items and
// arms the cascade on the second: default pivots where the tree has leaf
// items to choose them from, none on a classic vp-tree.
func newCascadePair(t *testing.T, items [][]float64, opts Options) (off, on *Tree[[]float64]) {
	t.Helper()
	var err error
	if off, err = New(items, metric.NewCounter(metric.L2), opts); err != nil {
		t.Fatal(err)
	}
	if on, err = New(items, metric.NewCounter(metric.L2), opts); err != nil {
		t.Fatal(err)
	}
	before := on.DistanceCount()
	if err := on.EnableCascade(cascade.Options{}); err != nil {
		t.Fatal(err)
	}
	sh, want := on.Shape(), 0
	if sh.LeafItems > 0 {
		want = cascade.DefaultPivots
	}
	if sh.CascadePivots != want || sh.CascadeBytes != 2*want*sh.LeafItems {
		t.Fatalf("EnableCascade armed %d pivots in %d bytes over %d leaf items, want %d pivots", sh.CascadePivots, sh.CascadeBytes, sh.LeafItems, want)
	}
	if spent := on.DistanceCount() - before; spent != int64(want*sh.LeafItems) {
		t.Fatalf("EnableCascade computed %d distances, want pivots × leaf items = %d", spent, want*sh.LeafItems)
	}
	if sh.FilterStep != off.Shape().FilterStep || sh.FilterBytes != off.Shape().FilterBytes {
		t.Fatalf("arming the cascade moved the leaf rows: step %g, %d bytes", sh.FilterStep, sh.FilterBytes)
	}
	return off, on
}

// TestCascadeInvariance checks the cascade's contract on both trees
// (testutil.CheckCascade), and that a classic vp-tree, which has no leaf
// items, is left uncascaded.
func TestCascadeInvariance(t *testing.T) {
	eachV(t, cascadeOpts, checkCascadeInvariance)
}

func checkCascadeInvariance(t *testing.T, opts Options) {
	off, on := newCascadePair(t, uniformItems(41, 3000, 12), opts)
	testutil.CheckCascade(t, off, on, on.Shape().CascadePivots, uniformItems(5, 40, 12), []float64{0.3, 0.6, 0.9}, []int{1, 10, 50})
}

// TestCascadeSteadyStateAllocations re-pins the PR 4 zero-alloc serving
// guarantee with the cascade enabled: the query's pivot distances and
// windows live in the pooled scratch and must not add a steady-state
// allocation.
func TestCascadeSteadyStateAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	items := uniformItems(13, 2000, 8)
	eachV(t, cascadeOpts, func(t *testing.T, opts Options) {
		_, tree := newCascadePair(t, items, opts)
		far := []float64{100, 100, 100, 100, 100, 100, 100, 100}
		near := items[17]
		tree.Range(far, 0.5)
		tree.KNN(near, 10)
		if allocs := testing.AllocsPerRun(200, func() { tree.Range(far, 0.5) }); allocs != 0 {
			t.Errorf("cascaded empty-result Range allocated %.1f times per query, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() { tree.KNN(near, 10) }); allocs > 1 {
			t.Errorf("cascaded KNN allocated %.1f times per query, want <= 1 (the result slice)", allocs)
		}
	})
}

// TestCascadeConcurrentQueries runs cascaded queries from many
// goroutines for the race detector: the pivot distances are pooled scratch,
// single-owner.
func TestCascadeConcurrentQueries(t *testing.T) {
	items := uniformItems(3, 1200, 8)
	_, on := newCascadePair(t, items, cascadeOpts)
	done := make(chan struct{})
	for g := 0; g < 6; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewPCG(uint64(g), 9))
			for i := 0; i < 60; i++ {
				q := make([]float64, 8)
				for j := range q {
					q[j] = rng.Float64()
				}
				on.Range(q, 0.4)
				on.KNN(q, 5)
			}
		}(g)
	}
	for g := 0; g < 6; g++ {
		<-done
	}
}

// armWorkloadTree builds the workload's tree twice, arming the cascade on
// the second, and returns both with the armed one's counter.
func armWorkloadTree(t *testing.T, w *testutil.Workload, opts Options) (off, on *Tree[int], c *metric.Counter[int]) {
	t.Helper()
	off, _ = buildWorkloadTree(t, w, opts)
	on, c = buildWorkloadTree(t, w, opts)
	if err := on.EnableCascade(cascade.Options{}); err != nil {
		t.Fatal(err)
	}
	if got, want := on.Shape(), off.Shape(); got.CascadePivots == 0 || got.FilterStep != want.FilterStep || got.FilterSlack != want.FilterSlack {
		t.Fatalf("armed %+v, unarmed %+v: want pivots, and the leaf rows' grid left alone", got, want)
	}
	return off, on, c
}

// TestCascadeSoundAtBoundaryRadii is TestFilterSoundAtBoundaryRadii for
// the cascade's columns, on a grid a far outlier coarsens: the line's
// points are multiples of 2⁻⁴⁰ in [0, 1) but for one at 1024, which
// max-min selection takes for a pivot as soon as it may. Every distance to
// it is exact, so |d(q,P) − d(P,x)| is d(q,x) itself and at r = d(q,x) the
// item sits on the edge of a window whose codes are 2⁻⁵ apart: only the
// cascade's own slack, and a window not rounded inward, keep it in the
// answer. Radii one code either side of that edge join the float64s beside
// it.
func TestCascadeSoundAtBoundaryRadii(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1))
	const n, nq, outlier = 700, 6, 0
	line := make([]float64, n+nq)
	for i := range line {
		line[i] = float64(rng.Uint64N(1<<40)) / (1 << 40)
		if i%2 == 1 && i < n {
			line[i] = line[i-1] + 0x1p-20 // twins well inside one code of each other
		}
	}
	line[outlier] = 1024
	dist := func(a, b int) float64 { return math.Abs(line[a] - line[b]) }
	w := &testutil.Workload{Items: testutil.IDs(n), Dist: dist, Truth: linear.New(testutil.IDs(n), metric.NewCounter(dist))}
	for i := 0; i < nq; i++ {
		w.Queries = append(w.Queries, n+i)
	}
	// Shapes that keep the outlier a leaf item: with two vantage points a
	// node it is the second of one, the farthest from the first.
	for _, opts := range []Options{
		{Vantages: 1, Partitions: 2, LeafCapacity: 30, PathLength: 3, Build: Build{Seed: 7}},
		{Vantages: 1, Partitions: 3, LeafCapacity: 9, PathLength: 5, Build: Build{Seed: 7}},
		vpOptions(3, 40, 7),
		vpOptions(2, 25, 3),
	} {
		_, on, _ := armWorkloadTree(t, w, opts)
		if !slices.Contains(on.cpivots, outlier) || on.cstep != 0x1p-5 || on.cslack != on.cstep {
			t.Fatalf("pivots %v on a grid of %g, slack %g: want the outlier among them and a step of 2⁻⁵ it costs", on.cpivots, on.cstep, on.cslack)
		}
		var radii []float64
		for _, q := range w.Queries {
			x := w.Items[1+rng.IntN(n-1)]
			r := math.Abs(w.Dist(q, outlier) - w.Dist(x, outlier))
			if r != w.Dist(q, x) {
				t.Fatalf("|d(q,P) − d(P,x)| = %g, d(q,x) = %g: the line should make them one", r, w.Dist(q, x))
			}
			radii = append(radii, math.Nextafter(r, 0), r, math.Nextafter(r, 2), max(r-on.cstep, 0), r+on.cstep)
		}
		checkAllQueryKinds(t, "outlier pivot", on, w, radii, []int{1, 2, 3, 7, 8, 20, 21, 60, 61})
	}
}

// TestCascadeIdleColumn arms the cascade under a metric that puts +Inf
// between two halves of the data (as TestFilterSoundAtExtremeMagnitudes
// does): the columns hold idleCode, their slack is +Inf, and the cascade
// must then filter nothing and lose nothing.
func TestCascadeIdleColumn(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 8))
	base := testutil.NewVectorWorkload(rng, 500, 5, 6, metric.L2)
	dist := func(a, b int) float64 {
		if a%2 != b%2 {
			return math.Inf(1)
		}
		return base.Dist(a, b)
	}
	w := &testutil.Workload{Items: base.Items, Queries: base.Queries, Dist: dist, Truth: linear.New(base.Items, metric.NewCounter(dist))}
	_, on, _ := armWorkloadTree(t, w, optionMatrix[3])
	if !slices.Contains(on.ccodes, idleCode) || !math.IsInf(on.Shape().CascadeSlack, 1) {
		t.Fatalf("slack %g: want an idle code among the columns and the cascade idle", on.cslack)
	}
	radii, ks := []float64{0, 0.2, 0.45, 0.8, 3}, []int{1, 10, 100}
	testutil.CheckRange(t, "idle", on, w, radii)
	testutil.CheckKNN(t, "idle", on, w, ks)
	for _, q := range w.Queries {
		for _, r := range radii {
			if _, s := on.RangeWithStats(q, r); s.FilteredByCascade != 0 {
				t.Fatalf("Range(%d, %g): an idle cascade filtered %d candidates", q, r, s.FilteredByCascade)
			}
		}
		for _, k := range ks {
			if _, s := on.KNNWithStats(q, k); s.FilteredByCascade != 0 {
				t.Fatalf("KNN(%d, %d): an idle cascade filtered %d candidates", q, k, s.FilteredByCascade)
			}
		}
	}
}

// TestCascadeAcrossSaveLoad pins that the columns, which Save leaves out,
// come back the same: pivot selection depends on the item arena's order
// alone, which the stream keeps, so arming a loaded tree answers every
// query at the stats of arming the original.
func TestCascadeAcrossSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	w := testutil.NewVectorWorkload(rng, 1500, 8, 10, metric.L2)
	eachV(t, cascadeOpts, func(t *testing.T, opts Options) {
		_, on, _ := armWorkloadTree(t, w, vOrBucketed(opts))
		plain, c := buildWorkloadTree(t, w, vOrBucketed(opts))
		loaded := reload(t, plain, c)
		if err := loaded.EnableCascade(cascade.Options{}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(loaded.cpivots, on.cpivots) || !slices.Equal(loaded.ccodes, on.ccodes) || loaded.Shape() != on.Shape() {
			t.Fatalf("armed after Load: pivots %v, shape %+v; armed after New: %v, %+v", loaded.cpivots, loaded.Shape(), on.cpivots, on.Shape())
		}
		var filtered int
		for _, q := range w.Queries {
			for _, req := range []index.Query[int]{index.RangeQuery(q, 0.4), index.RangeQuery(q, 0.7), index.KNNQuery(q, 1), index.KNNQuery(q, 10)} {
				got, want := loaded.Search(req), on.Search(req)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v: loaded %+v, built %+v", req, got.Stats, want.Stats)
				}
				filtered += want.Stats.FilteredByCascade
			}
		}
		if filtered == 0 {
			t.Fatal("the cascade never filtered on this workload; the test is vacuous")
		}
	})
}

// vOrBucketed is opts, but for the classic vp-tree eachV ends on, which
// has nothing to arm: the bucketed one of the same order stands in.
func vOrBucketed(opts Options) Options {
	if opts.LeafCapacity < 0 {
		return vpOptions(opts.Partitions, 20, opts.Seed)
	}
	return opts
}

// TestCascadeBudgetBelowPivots pins that a query whose budget cannot pay
// the pivots is answered as the unarmed tree answers it, within the
// budget, and that one whose budget can is charged for them first.
func TestCascadeBudgetBelowPivots(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	w := testutil.NewVectorWorkload(rng, 1500, 8, 10, metric.L2)
	off, on, c := armWorkloadTree(t, w, cascadeOpts)
	pivots := int64(on.Shape().CascadePivots)
	for _, q := range w.Queries {
		for _, req := range []index.Query[int]{index.RangeQuery(q, 0.5), index.KNNQuery(q, 5)} {
			req.Opts.Budget = pivots - 1
			before := c.Count()
			got, want := on.Search(req), off.Search(req)
			if spent := c.Count() - before; spent > req.Opts.Budget || spent != got.Stats.Distances() {
				t.Fatalf("%+v: %d distances computed, %d reported, on a budget of %d", req, spent, got.Stats.Distances(), req.Opts.Budget)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: armed %+v, unarmed %+v", req, got, want)
			}
			req.Opts.Budget = pivots + 2
			before = c.Count()
			got = on.Search(req)
			if spent := c.Count() - before; spent > req.Opts.Budget || spent != got.Stats.Distances() || int64(got.Stats.VantagePoints) < pivots {
				t.Fatalf("%+v: %d distances computed on a budget of %d, stats %+v", req, spent, req.Opts.Budget, got.Stats)
			}
		}
	}
}
