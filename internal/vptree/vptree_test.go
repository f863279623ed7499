package vptree

import (
	"math"
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

func buildWorkloadTree(t *testing.T, w *testutil.Workload, opts Options) (*Tree[int], *metric.Counter[int]) {
	t.Helper()
	c := metric.NewCounter(w.Dist)
	tree, err := New(w.Items, c, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tree, c
}

func TestRangeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	w := testutil.NewVectorWorkload(rng, 400, 8, 12, metric.L2)
	radii := []float64{0, 0.1, 0.3, 0.6, 1.0, 2.0}
	for _, opts := range []Options{
		{Order: 2, Build: Build{Seed: 7}},
		{Order: 3, Build: Build{Seed: 7}},
		{Order: 5, LeafCapacity: 4, Build: Build{Seed: 7}},
		{Order: 2, Selection: SelectBestSpread, Build: Build{Seed: 7}},
	} {
		tree, _ := buildWorkloadTree(t, w, opts)
		testutil.CheckRange(t, "vpt", tree, w, radii)
	}
}

func TestKNNMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 1))
	w := testutil.NewVectorWorkload(rng, 300, 6, 10, metric.L2)
	for _, order := range []int{2, 3, 4} {
		tree, _ := buildWorkloadTree(t, w, Options{Order: order, Build: Build{Seed: 11}})
		testutil.CheckKNN(t, "vpt", tree, w, []int{1, 2, 5, 17, 300, 1000})
	}
}

func TestDuplicateHeavyData(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	w := testutil.NewClumpedWorkload(rng, 500, 5, 8, metric.L2)
	for _, order := range []int{2, 3} {
		tree, _ := buildWorkloadTree(t, w, Options{Order: order, Build: Build{Seed: 13}})
		testutil.CheckRange(t, "vpt-clumped", tree, w, []float64{0, 0.01, 0.05, 0.5, 3})
		testutil.CheckKNN(t, "vpt-clumped", tree, w, []int{1, 3, 10})
		testutil.CheckContainsAllOnce(t, "vpt-clumped", tree, w, 1e6)
	}
}

func TestAllPointsIndexedExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 1))
	w := testutil.NewVectorWorkload(rng, 257, 4, 1, metric.L1)
	tree, _ := buildWorkloadTree(t, w, Options{Order: 3, LeafCapacity: 5, Build: Build{Seed: 17}})
	testutil.CheckContainsAllOnce(t, "vpt", tree, w, 1e9)
}

func TestTinyTrees(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	for n := 0; n <= 5; n++ {
		items := make([][]float64, n)
		for i := range items {
			items[i] = []float64{float64(i)}
		}
		tree, err := New(items, dist, Options{Order: 3})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.Len() != n {
			t.Errorf("n=%d: Len() = %d", n, tree.Len())
		}
		got := tree.Range([]float64{0}, 100)
		if len(got) != n {
			t.Errorf("n=%d: full range returned %d items", n, len(got))
		}
		nn := tree.KNN([]float64{0.2}, 2)
		wantLen := min(2, n)
		if len(nn) != wantLen {
			t.Errorf("n=%d: KNN returned %d items, want %d", n, len(nn), wantLen)
		}
		if n > 0 && nn[0].Item[0] != 0 {
			t.Errorf("n=%d: nearest to 0.2 is %v", n, nn[0].Item)
		}
	}
}

func TestNegativeRadiusAndZeroK(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	tree, err := New([][]float64{{1}, {2}}, dist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Range([]float64{1}, -0.5); got != nil {
		t.Errorf("Range with negative radius = %v, want nil", got)
	}
	if got := tree.KNN([]float64{1}, 0); got != nil {
		t.Errorf("KNN(k=0) = %v, want nil", got)
	}
	if got := tree.KNN([]float64{1}, -3); got != nil {
		t.Errorf("KNN(k<0) = %v, want nil", got)
	}
}

func TestInvalidOptions(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	items := [][]float64{{1}, {2}, {3}}
	for _, opts := range []Options{
		{Order: 1},
		{Order: -2},
		{LeafCapacity: -1},
	} {
		if _, err := New(items, dist, opts); err == nil {
			t.Errorf("New with %+v succeeded, want error", opts)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 1))
	w := testutil.NewVectorWorkload(rng, 200, 6, 3, metric.L2)
	build := func() ([]int64, [][]int) {
		c := metric.NewCounter(w.Dist)
		tree, err := New(w.Items, c, Options{Order: 3, Build: Build{Seed: 99}})
		if err != nil {
			t.Fatal(err)
		}
		var counts []int64
		var results [][]int
		for _, q := range w.Queries {
			c.Reset()
			results = append(results, tree.Range(q, 0.4))
			counts = append(counts, c.Count())
		}
		return counts, results
	}
	c1, r1 := build()
	c2, r2 := build()
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("query %d: distance counts differ between identical builds: %d vs %d", i, c1[i], c2[i])
		}
		if len(r1[i]) != len(r2[i]) {
			t.Errorf("query %d: result sizes differ", i)
		}
	}
}

func TestConstructionCostIsNLogN(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	n := 2048
	w := testutil.NewVectorWorkload(rng, n, 8, 1, metric.L2)
	for _, order := range []int{2, 3} {
		tree, _ := buildWorkloadTree(t, w, Options{Order: order, Build: Build{Seed: 1}})
		// Each level costs ~n distance computations; height ~ log_m n.
		// Allow generous slack for uneven splits.
		logm := math.Log(float64(n)) / math.Log(float64(order))
		limit := int64(3 * float64(n) * logm)
		if tree.BuildCost() > limit {
			t.Errorf("order %d: BuildCost = %d, want ≤ %d (~3·n·log_m n)", order, tree.BuildCost(), limit)
		}
		if tree.BuildCost() < int64(n-1) {
			t.Errorf("order %d: BuildCost = %d, impossibly small", order, tree.BuildCost())
		}
	}
}

func TestHigherOrderShrinksHeight(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	w := testutil.NewVectorWorkload(rng, 1000, 8, 1, metric.L2)
	t2, _ := buildWorkloadTree(t, w, Options{Order: 2, Build: Build{Seed: 1}})
	t4, _ := buildWorkloadTree(t, w, Options{Order: 4, Build: Build{Seed: 1}})
	if t4.Height() >= t2.Height() {
		t.Errorf("height(order 4) = %d, height(order 2) = %d; want strictly smaller", t4.Height(), t2.Height())
	}
	// Balanced splits: height within a constant of log_m(n).
	if h, want := t2.Height(), int(math.Ceil(math.Log2(1000)))+2; h > want {
		t.Errorf("binary height = %d, want ≤ %d", h, want)
	}
}

func TestSearchBeatsLinearScanOnSmallRadii(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 1))
	w := testutil.NewVectorWorkload(rng, 3000, 4, 20, metric.L2) // low dim: pruning must work
	tree, c := buildWorkloadTree(t, w, Options{Order: 2, Build: Build{Seed: 3}})
	var total int64
	for _, q := range w.Queries {
		c.Reset()
		tree.Range(q, 0.05)
		total += c.Count()
	}
	avg := float64(total) / float64(len(w.Queries))
	if avg > float64(w.Truth.Len())/2 {
		t.Errorf("avg distance computations %.0f ≥ n/2 = %d; vp-tree is not pruning", avg, w.Truth.Len()/2)
	}
}

func TestDiscreteMetricDegenerate(t *testing.T) {
	// All non-identical points are equidistant: pruning is impossible
	// but correctness must hold.
	items := testutil.IDs(64)
	c := metric.NewCounter(metric.Discrete[int]())
	tree, err := New(items, c, Options{Order: 3, Build: Build{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	got := tree.Range(7, 0)
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("Range(7, 0) = %v, want [7]", got)
	}
	if got := tree.Range(7, 1); len(got) != 64 {
		t.Errorf("Range(7, 1) returned %d items, want 64", len(got))
	}
	if got := tree.Range(200, 0.5); len(got) != 0 {
		t.Errorf("Range(foreign, 0.5) = %v, want empty", got)
	}
}

func TestEditDistanceStrings(t *testing.T) {
	words := []string{"book", "books", "cake", "boo", "boon", "cook", "cape", "cart", "case", "cast"}
	c := metric.NewCounter(metric.Edit)
	tree, err := New(words, c, Options{Order: 2, Build: Build{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	got := tree.Range("book", 1)
	want := map[string]bool{"book": true, "books": true, "boo": true, "boon": true, "cook": true}
	if len(got) != len(want) {
		t.Fatalf("Range(book, 1) = %v", got)
	}
	for _, wd := range got {
		if !want[wd] {
			t.Errorf("unexpected word %q in result", wd)
		}
	}
	nn := tree.KNN("cane", 2)
	if len(nn) != 2 || nn[0].Dist != 1 {
		t.Errorf("KNN(cane, 2) = %v; want cake or cape at distance 1 first", nn)
	}
}

func TestBestSpreadReducesQueryCost(t *testing.T) {
	// Not a strict guarantee, but on clustered data the spread
	// heuristic should not be wildly worse than random selection.
	rng := rand.New(rand.NewPCG(9, 1))
	w := testutil.NewClumpedWorkload(rng, 2000, 6, 15, metric.L2)
	cost := func(sel SelectionStrategy) float64 {
		c := metric.NewCounter(w.Dist)
		tree, err := New(w.Items, c, Options{Order: 2, Selection: sel, Build: Build{Seed: 21}})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, q := range w.Queries {
			c.Reset()
			tree.Range(q, 0.1)
			total += c.Count()
		}
		return float64(total) / float64(len(w.Queries))
	}
	random := cost(SelectRandom)
	spread := cost(SelectBestSpread)
	if spread > 2.5*random {
		t.Errorf("best-spread cost %.0f vs random %.0f: heuristic catastrophically worse", spread, random)
	}
}

func TestParallelBuildIdenticalToSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 1))
	w := testutil.NewVectorWorkload(rng, 3000, 8, 8, metric.L2)
	seq, seqC := buildWorkloadTree(t, w, Options{Order: 3, Build: Build{Seed: 5}})
	par, parC := buildWorkloadTree(t, w, Options{Order: 3, Build: Build{Seed: 5, Workers: 8}})
	if seq.BuildCost() != par.BuildCost() {
		t.Errorf("build cost differs: %d vs %d", seq.BuildCost(), par.BuildCost())
	}
	for _, q := range w.Queries {
		seqC.Reset()
		a := seq.Range(q, 0.3)
		parC.Reset()
		b := par.Range(q, 0.3)
		if seqC.Count() != parC.Count() || len(a) != len(b) {
			t.Fatalf("parallel tree differs: costs %d vs %d, results %d vs %d",
				seqC.Count(), parC.Count(), len(a), len(b))
		}
	}
}

func TestRangeWithStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	w := testutil.NewVectorWorkload(rng, 1500, 8, 8, metric.L2)
	tree, c := buildWorkloadTree(t, w, Options{Order: 3, Build: Build{Seed: 4}})
	for _, q := range w.Queries {
		for _, r := range []float64{0.1, 0.4} {
			c.Reset()
			out, s := tree.RangeWithStats(q, r)
			if got := int64(s.Computed + s.VantagePoints); got != c.Count() {
				t.Fatalf("r=%g: stats count %d, counter %d", r, got, c.Count())
			}
			if s.Results != len(out) {
				t.Fatalf("r=%g: Results = %d, len = %d", r, s.Results, len(out))
			}
			// The classic vp-tree's defining cost property: no stored leaf
			// distances, so nothing is filtered; its leaves are a vantage
			// point each, so nothing is a candidate either.
			if s.Candidates != 0 || s.Computed != 0 || s.VantagePoints != s.NodesVisited {
				t.Fatalf("r=%g: %+v: want one vantage distance per node and no candidates", r, s)
			}
			// And results must match the plain Range.
			if want := tree.Range(q, r); len(want) != len(out) {
				t.Fatalf("r=%g: %d vs %d results", r, len(out), len(want))
			}
		}
	}
}
