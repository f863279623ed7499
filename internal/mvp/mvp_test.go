package mvp

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

// vpOptions are the options of the paper's vp-tree of the given order
// (internal/vptree's mapping): one vantage point per node, leaves of at
// most capacity points, nothing retained, every vantage point drawn.
func vpOptions(order, capacity int, seed uint64) Options {
	k := -1
	if capacity > 1 {
		k = capacity - 1
	}
	return Options{Vantages: 1, Partitions: order, LeafCapacity: k, PathLength: -1, RandomFirstVantage: true, Build: Build{Seed: seed}}
}

func buildWorkloadTree(t *testing.T, w *testutil.Workload, opts Options) (*Tree[int], *metric.Counter[int]) {
	t.Helper()
	c := metric.NewCounter(w.Dist)
	tree, err := New(w.Items, c, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tree, c
}

var optionMatrix = []Options{
	{Partitions: 2, LeafCapacity: 1, PathLength: -1, Build: Build{Seed: 7}},
	{Partitions: 2, LeafCapacity: 4, PathLength: 2, Build: Build{Seed: 7}},
	{Partitions: 2, LeafCapacity: 16, PathLength: 5, Build: Build{Seed: 7}},
	{Partitions: 3, LeafCapacity: 9, PathLength: 5, Build: Build{Seed: 7}},
	{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 7}},
	{Partitions: 4, LeafCapacity: 13, PathLength: 8, Build: Build{Seed: 7}},
	{Partitions: 3, LeafCapacity: 13, PathLength: 4, RandomSecondVantage: true, Build: Build{Seed: 7}},
	{Partitions: 3, LeafCapacity: 9, PathLength: 5, RandomFirstVantage: true, Build: Build{Seed: 7}},
	// One vantage point per node: two of the shapes above, the classic
	// vp-tree, and a bucketed one.
	{Vantages: 1, Partitions: 2, LeafCapacity: 4, PathLength: 2, Build: Build{Seed: 7}},
	{Vantages: 1, Partitions: 3, LeafCapacity: 9, PathLength: 5, Build: Build{Seed: 7}},
	vpOptions(3, 1, 7),
	vpOptions(2, 10, 7),
}

// eachV runs body on opts as given (v = 2, under the test's own name so
// what it pinned before stays pinned) and, as subtests, on the same shape
// at one vantage point per node and on the classic vp-tree of the same
// order: every table so takes v as one more input.
func eachV(t *testing.T, opts Options, body func(t *testing.T, opts Options)) {
	body(t, opts)
	one := opts
	one.Vantages = 1
	t.Run("v1", func(t *testing.T) { body(t, one) })
	t.Run("vp", func(t *testing.T) { body(t, vpOptions(opts.Partitions, 1, opts.Seed)) })
}

func TestRangeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	w := testutil.NewVectorWorkload(rng, 400, 8, 12, metric.L2)
	radii := []float64{0, 0.1, 0.3, 0.6, 1.0, 2.0}
	for _, opts := range optionMatrix {
		tree, _ := buildWorkloadTree(t, w, opts)
		testutil.CheckRange(t, "mvpt", tree, w, radii)
	}
}

func TestKNNMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	w := testutil.NewVectorWorkload(rng, 300, 6, 10, metric.L2)
	for _, opts := range optionMatrix {
		tree, _ := buildWorkloadTree(t, w, opts)
		testutil.CheckKNN(t, "mvpt", tree, w, []int{1, 2, 5, 17, 300, 1000})
	}
}

func TestDuplicateHeavyData(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 2))
	w := testutil.NewClumpedWorkload(rng, 500, 5, 8, metric.L2)
	for _, opts := range optionMatrix {
		tree, _ := buildWorkloadTree(t, w, opts)
		testutil.CheckRange(t, "mvpt-clumped", tree, w, []float64{0, 0.01, 0.05, 0.5, 3})
		testutil.CheckKNN(t, "mvpt-clumped", tree, w, []int{1, 3, 10})
		testutil.CheckContainsAllOnce(t, "mvpt-clumped", tree, w, 1e6)
	}
}

func TestTinyTrees(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	for n := 0; n <= 8; n++ {
		items := make([][]float64, n)
		for i := range items {
			items[i] = []float64{float64(i)}
		}
		tree, err := New(items, dist, Options{Partitions: 2, LeafCapacity: 2, PathLength: 3})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.Len() != n {
			t.Errorf("n=%d: Len() = %d", n, tree.Len())
		}
		if got := tree.Range([]float64{0}, 100); len(got) != n {
			t.Errorf("n=%d: full range returned %d items", n, len(got))
		}
		nn := tree.KNN([]float64{0.2}, 3)
		if want := min(3, n); len(nn) != want {
			t.Errorf("n=%d: KNN returned %d items, want %d", n, len(nn), want)
		}
		if n > 0 && nn[0].Item[0] != 0 {
			t.Errorf("n=%d: nearest to 0.2 is %v, want [0]", n, nn[0].Item)
		}
	}
}

func TestNegativeRadiusAndZeroK(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	tree, err := New([][]float64{{1}, {2}, {3}}, dist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Range([]float64{1}, -0.5); got != nil {
		t.Errorf("Range with negative radius = %v, want nil", got)
	}
	if got := tree.KNN([]float64{1}, 0); got != nil {
		t.Errorf("KNN(k=0) = %v, want nil", got)
	}
}

func TestInvalidOptions(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	items := [][]float64{{1}, {2}, {3}}
	for _, opts := range []Options{
		{Partitions: 1},
		{Partitions: -1},
		{LeafCapacity: -2},
		{Vantages: 3},
		{Vantages: -1},
		{Vantages: 1, RandomSecondVantage: true},
	} {
		if _, err := New(items, dist, opts); err == nil {
			t.Errorf("New with %+v succeeded, want error", opts)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	tree, err := New([][]float64{{1}, {2}}, dist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Partitions() != 2 || tree.LeafCapacity() != 13 || tree.PathLength() != 4 {
		t.Errorf("defaults = (m=%d, k=%d, p=%d), want (2, 13, 4)",
			tree.Partitions(), tree.LeafCapacity(), tree.PathLength())
	}
	tree, err = New([][]float64{{1}}, dist, Options{PathLength: -1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.PathLength() != 0 {
		t.Errorf("PathLength(-1) = %d, want 0", tree.PathLength())
	}
}

func TestAccountingInvariant(t *testing.T) {
	// Every data point is either a vantage point or a leaf item.
	rng := rand.New(rand.NewPCG(4, 2))
	for _, n := range []int{0, 1, 2, 3, 50, 333, 1000} {
		w := testutil.NewVectorWorkload(rng, n, 6, 1, metric.L2)
		tree, _ := buildWorkloadTree(t, w, Options{Partitions: 3, LeafCapacity: 7, PathLength: 5, Build: Build{Seed: 5}})
		s := tree.Shape()
		if s.VantagePoints+s.LeafItems != n {
			t.Errorf("n=%d: %d vantage points + %d leaf items != n", n, s.VantagePoints, s.LeafItems)
		}
		if s.MaxPathLen > 5 {
			t.Errorf("n=%d: MaxPathLen = %d exceeds p = 5", n, s.MaxPathLen)
		}
	}
}

func TestVantagePointCountFormula(t *testing.T) {
	// The paper: a full mvp-tree of height h has 2·(m^{2h} − 1)/(m² − 1)
	// vantage points (two per node). Check the "two per node" part on
	// arbitrary trees: internal nodes always carry exactly two.
	rng := rand.New(rand.NewPCG(5, 2))
	w := testutil.NewVectorWorkload(rng, 2000, 8, 1, metric.L2)
	tree, _ := buildWorkloadTree(t, w, Options{Partitions: 2, LeafCapacity: 10, PathLength: 4, Build: Build{Seed: 9}})
	s := tree.Shape()
	if s.VantagePoints < 2*(s.Nodes-s.Leaves) {
		t.Errorf("internal nodes missing vantage points: %d VPs for %d internal nodes",
			s.VantagePoints, s.Nodes-s.Leaves)
	}
	if s.Leaves == 0 || s.LeafItems == 0 {
		t.Error("tree of 2000 points built no leaves")
	}
}

func TestLargerLeavesMeanFewerVantagePoints(t *testing.T) {
	// §4.2: keeping k large makes the ratio of vantage points to leaf
	// points smaller — the design argument for big leaves.
	rng := rand.New(rand.NewPCG(6, 2))
	w := testutil.NewVectorWorkload(rng, 3000, 8, 1, metric.L2)
	small, _ := buildWorkloadTree(t, w, Options{Partitions: 3, LeafCapacity: 9, PathLength: 5, Build: Build{Seed: 1}})
	large, _ := buildWorkloadTree(t, w, Options{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 1}})
	sS, sL := small.Shape(), large.Shape()
	if sL.VantagePoints >= sS.VantagePoints {
		t.Errorf("k=80 has %d vantage points, k=9 has %d; want fewer",
			sL.VantagePoints, sS.VantagePoints)
	}
	if sL.Height >= sS.Height {
		t.Errorf("k=80 height %d, k=9 height %d; want shorter", sL.Height, sS.Height)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2))
	w := testutil.NewVectorWorkload(rng, 300, 6, 5, metric.L2)
	run := func() []int64 {
		c := metric.NewCounter(w.Dist)
		tree, err := New(w.Items, c, Options{Partitions: 3, LeafCapacity: 9, PathLength: 5, Build: Build{Seed: 42}})
		if err != nil {
			t.Fatal(err)
		}
		var counts []int64
		for _, q := range w.Queries {
			c.Reset()
			tree.Range(q, 0.4)
			counts = append(counts, c.Count())
		}
		return counts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("query %d: counts differ across identical builds: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPathFilteringReducesCost(t *testing.T) {
	// The headline mechanism: with PATH filtering enabled (p > 0) a
	// range query must cost no more distance computations than the
	// same tree without it, and strictly less on aggregate.
	rng := rand.New(rand.NewPCG(8, 2))
	w := testutil.NewVectorWorkload(rng, 4000, 10, 30, metric.L2)
	cost := func(p int) int64 {
		c := metric.NewCounter(w.Dist)
		tree, err := New(w.Items, c, Options{Partitions: 3, LeafCapacity: 40, PathLength: p, Build: Build{Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, q := range w.Queries {
			c.Reset()
			tree.Range(q, 0.5)
			total += c.Count()
		}
		return total
	}
	without := cost(-1) // p = 0
	with := cost(6)
	if with >= without {
		t.Errorf("PATH filtering did not reduce cost: with p=6 %d, with p=0 %d", with, without)
	}
}

func TestMVPBeatsVPOnPaperWorkload(t *testing.T) {
	// Scaled-down Figure 8 shape check: mvpt(3, large-k) must make
	// fewer distance computations than a binary vp-tree at small radii.
	rng := rand.New(rand.NewPCG(9, 2))
	w := testutil.NewVectorWorkload(rng, 4000, 20, 25, metric.L2)

	vc := metric.NewCounter(w.Dist)
	vt, err := New(w.Items, vc, vpOptions(2, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	mc := metric.NewCounter(w.Dist)
	mt, err := New(w.Items, mc, Options{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var vTotal, mTotal int64
	for _, q := range w.Queries {
		vc.Reset()
		vt.Range(q, 0.3)
		vTotal += vc.Count()
		mc.Reset()
		mt.Range(q, 0.3)
		mTotal += mc.Count()
	}
	if mTotal >= vTotal {
		t.Errorf("mvpt(3,80) cost %d ≥ vpt(2) cost %d on the paper's workload shape", mTotal, vTotal)
	}
}

func TestEditDistanceStrings(t *testing.T) {
	words := []string{"book", "books", "cake", "boo", "boon", "cook", "cape", "cart", "case", "cast",
		"bake", "lake", "take", "rake", "fake", "face", "fact", "fast", "mast", "most"}
	c := metric.NewCounter(metric.Edit)
	tree, err := New(words, c, Options{Partitions: 2, LeafCapacity: 4, PathLength: 2, Build: Build{Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	got := tree.Range("book", 1)
	want := map[string]bool{"book": true, "books": true, "boo": true, "boon": true, "cook": true}
	if len(got) != len(want) {
		t.Fatalf("Range(book, 1) = %v, want %v", got, want)
	}
	for _, wd := range got {
		if !want[wd] {
			t.Errorf("unexpected word %q", wd)
		}
	}
	nn := tree.KNN("bake", 4)
	if len(nn) != 4 || nn[0].Dist != 0 || nn[0].Item != "bake" {
		t.Errorf("KNN(bake, 4) = %v", nn)
	}
}
