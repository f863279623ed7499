package gmvp

import (
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

var optionMatrix = []Options{
	{Vantages: 1, Partitions: 2, LeafCapacity: 1, PathLength: -1, Build: Build{Seed: 7}},
	{Vantages: 1, Partitions: 9, LeafCapacity: 20, PathLength: 5, Build: Build{Seed: 7}},
	{Vantages: 2, Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 7}},
	{Vantages: 3, Partitions: 2, LeafCapacity: 13, PathLength: 6, Build: Build{Seed: 7}},
	{Vantages: 4, Partitions: 2, LeafCapacity: 40, PathLength: 8, Build: Build{Seed: 7}},
	{Vantages: 3, Partitions: 3, LeafCapacity: 30, PathLength: 5, Build: Build{Seed: 7}},
}

func TestRangeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 7))
	w := testutil.NewVectorWorkload(rng, 500, 8, 10, metric.L2)
	radii := []float64{0, 0.1, 0.3, 0.6, 1.0, 2.0}
	for _, opts := range optionMatrix {
		tree, _ := buildWorkloadTree(t, w, opts)
		testutil.CheckRange(t, "gmvpt", tree, w, radii)
	}
}

func TestKNNMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 7))
	w := testutil.NewVectorWorkload(rng, 350, 6, 8, metric.L2)
	for _, opts := range optionMatrix {
		tree, _ := buildWorkloadTree(t, w, opts)
		testutil.CheckKNN(t, "gmvpt", tree, w, []int{1, 2, 5, 17, 350, 1000})
	}
}

func TestDuplicateHeavyData(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 7))
	w := testutil.NewClumpedWorkload(rng, 500, 5, 6, metric.L2)
	for _, opts := range optionMatrix {
		tree, _ := buildWorkloadTree(t, w, opts)
		testutil.CheckRange(t, "gmvpt-clumped", tree, w, []float64{0, 0.01, 0.05, 0.5, 3})
		testutil.CheckContainsAllOnce(t, "gmvpt-clumped", tree, w, 1e6)
	}
}

func TestTinyTrees(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	for n := 0; n <= 10; n++ {
		items := make([][]float64, n)
		for i := range items {
			items[i] = []float64{float64(i)}
		}
		tree, err := New(items, dist, Options{Vantages: 3, Partitions: 2, LeafCapacity: 2, PathLength: 4})
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
	}
}

func TestInvalidOptions(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	items := [][]float64{{1}, {2}, {3}}
	for _, opts := range []Options{
		{Vantages: -1},
		{Partitions: 1},
		{LeafCapacity: -3},
	} {
		if _, err := New(items, dist, opts); err == nil {
			t.Errorf("New with %+v succeeded, want error", opts)
		}
	}
}

func TestDefaults(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	tree, err := New([][]float64{{1}}, dist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Vantages() != 2 || tree.Partitions() != 3 || tree.LeafCapacity() != 80 || tree.PathLength() != 5 {
		t.Errorf("defaults = (v=%d m=%d k=%d p=%d)", tree.Vantages(), tree.Partitions(), tree.LeafCapacity(), tree.PathLength())
	}
}

func TestMoreVantagesFilterMoreAtFixedFanout(t *testing.T) {
	// The design question behind the generalization: with node fanout
	// held at ~8-9, do more vantage points per node (fewer, deeper
	// distance computations reused more) beat fewer? v=2,m=3 (fanout 9)
	// should beat v=1,m=9 (fanout 9) — that is the mvp-tree's core
	// claim — and v=3,m=2 (fanout 8) should be competitive.
	rng := rand.New(rand.NewPCG(4, 7))
	w := testutil.NewVectorWorkload(rng, 6000, 20, 25, metric.L2)
	cost := func(v, m int) float64 {
		c := metric.NewCounter(w.Dist)
		tree, err := New(w.Items, c, Options{Vantages: v, Partitions: m, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 11}})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, q := range w.Queries {
			c.Reset()
			tree.Range(q, 0.25)
			total += c.Count()
		}
		return float64(total) / float64(len(w.Queries))
	}
	v1 := cost(1, 9)
	v2 := cost(2, 3)
	v3 := cost(3, 2)
	if v2 >= v1 {
		t.Errorf("v=2,m=3 cost %.0f ≥ v=1,m=9 cost %.0f; sharing vantage points must help", v2, v1)
	}
	// v=3,m=2 is measurably worse than v=2,m=3 (binary shells are too
	// thin in 20 dimensions, echoing the paper's m=3 > m=2 finding);
	// assert only that it stays within the same order of magnitude.
	if v3 > 2*v2 {
		t.Errorf("v=3,m=2 cost %.0f more than 2× v=2,m=3 cost %.0f", v3, v2)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 7))
	w := testutil.NewVectorWorkload(rng, 300, 6, 4, metric.L2)
	run := func() []int64 {
		c := metric.NewCounter(w.Dist)
		tree, err := New(w.Items, c, Options{Vantages: 3, Partitions: 2, LeafCapacity: 10, PathLength: 5, Build: Build{Seed: 42}})
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for _, q := range w.Queries {
			c.Reset()
			tree.Range(q, 0.4)
			out = append(out, c.Count())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("query %d: counts differ across identical builds", i)
		}
	}
}

func TestStringsWorkToo(t *testing.T) {
	words := []string{"book", "books", "cake", "boo", "boon", "cook", "cape", "cart", "case", "cast",
		"bake", "lake", "take", "rake", "fake", "face", "fact", "fast", "mast", "most"}
	c := metric.NewCounter(metric.Edit)
	tree, err := New(words, c, Options{Vantages: 3, Partitions: 2, LeafCapacity: 4, PathLength: 4, Build: Build{Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	got := tree.Range("book", 1)
	if len(got) != 5 {
		t.Errorf("Range(book, 1) = %v, want 5 words", got)
	}
}

func TestShapeAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 7))
	for _, opts := range optionMatrix {
		for _, n := range []int{0, 1, 5, 333, 1000} {
			w := testutil.NewVectorWorkload(rng, n, 6, 1, metric.L2)
			tree, _ := buildWorkloadTree(t, w, opts)
			s := tree.Shape()
			if s.VantagePoints+s.LeafItems != n {
				t.Errorf("opts %+v n=%d: %d vantage points + %d leaf items != n",
					opts, n, s.VantagePoints, s.LeafItems)
			}
			if s.MaxPathLen > tree.PathLength() {
				t.Errorf("MaxPathLen %d exceeds p %d", s.MaxPathLen, tree.PathLength())
			}
		}
	}
}

func TestHeightShrinksWithFanout(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 7))
	w := testutil.NewVectorWorkload(rng, 3000, 6, 1, metric.L2)
	small, _ := buildWorkloadTree(t, w, Options{Vantages: 1, Partitions: 2, LeafCapacity: 5, PathLength: 4, Build: Build{Seed: 2}})
	big, _ := buildWorkloadTree(t, w, Options{Vantages: 3, Partitions: 3, LeafCapacity: 5, PathLength: 4, Build: Build{Seed: 2}})
	if big.Height() >= small.Height() {
		t.Errorf("fanout 27 height %d ≥ fanout 2 height %d", big.Height(), small.Height())
	}
}
