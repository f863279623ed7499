package laesa

import (
	"math"
	"math/rand/v2"
	"testing"

	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

func TestRangeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 1))
	w := testutil.NewVectorWorkload(rng, 400, 8, 12, metric.L2)
	for _, opts := range []Options{{Pivots: 1, Build: Build{Seed: 7}}, {Pivots: 8, Build: Build{Seed: 7}}, {Pivots: 64, Build: Build{Seed: 7}}} {
		c := metric.NewCounter(w.Dist)
		tbl, err := New(w.Items, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckRange(t, "laesa", tbl, w, []float64{0, 0.1, 0.3, 0.6, 1.0, 2.0})
	}
}

func TestKNNMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(62, 1))
	w := testutil.NewVectorWorkload(rng, 300, 6, 10, metric.L2)
	c := metric.NewCounter(w.Dist)
	tbl, err := New(w.Items, c, Options{Pivots: 12, Build: Build{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckKNN(t, "laesa", tbl, w, []int{1, 2, 5, 17, 300, 1000})
}

func TestDuplicateHeavyData(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 1))
	w := testutil.NewClumpedWorkload(rng, 500, 5, 8, metric.L2)
	c := metric.NewCounter(w.Dist)
	tbl, err := New(w.Items, c, Options{Pivots: 10, Build: Build{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckRange(t, "laesa-clumped", tbl, w, []float64{0, 0.01, 0.05, 0.5, 3})
	testutil.CheckKNN(t, "laesa-clumped", tbl, w, []int{1, 3, 10})
	testutil.CheckContainsAllOnce(t, "laesa-clumped", tbl, w, 1e6)
}

// TestLowerBoundMatchesBruteForce checks the table's bound loop against
// max_j |d(q, pivot_j) − d(pivot_j, item)| computed directly, with every
// pivot measured and with the prefix a budget of three leaves.
func TestLowerBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	items := testutil.RandomVectors(rng, 100, 4)
	tbl, err := New(items, metric.NewCounter(metric.L2), Options{Pivots: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := testutil.RandomVectors(rng, 1, 4)[0]
	for _, budget := range []int64{0, 3} {
		a := index.StartApprox(index.SearchOptions{Budget: budget})
		qd := tbl.queryPivots(q, &a)
		if want := map[int64]int{0: 4, 3: 3}[budget]; len(qd) != want {
			t.Fatalf("budget %d: %d pivots measured, want %d", budget, len(qd), want)
		}
		for i, it := range items {
			want := 0.0
			for _, pv := range tbl.pivots[:len(qd)] {
				want = math.Max(want, math.Abs(metric.L2(q, pv)-metric.L2(pv, it)))
			}
			if got := tbl.lowerBound(qd, i); got != want || got > metric.L2(q, it)+1e-12 {
				t.Fatalf("budget %d item %d: lowerBound %v, brute force %v, distance %v", budget, i, got, want, metric.L2(q, it))
			}
		}
	}
}

func TestPivotsCappedAtN(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	tbl, err := New([][]float64{{1}, {2}, {3}}, dist, Options{Pivots: 100})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Pivots() != 3 {
		t.Errorf("Pivots() = %d, want 3", tbl.Pivots())
	}
	if tbl.BuildCost() != 9 {
		t.Errorf("BuildCost = %d, want 9 (3 pivots × 3 items)", tbl.BuildCost())
	}
}

func TestEmptyAndInvalid(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	tbl, err := New(nil, dist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 || tbl.Range([]float64{0}, 5) != nil || tbl.KNN([]float64{0}, 2) != nil {
		t.Error("empty table misbehaves")
	}
	if _, err := New([][]float64{{1}}, dist, Options{Pivots: -1}); err == nil {
		t.Error("negative Pivots accepted")
	}
}

func TestMorePivotsFilterMore(t *testing.T) {
	rng := rand.New(rand.NewPCG(64, 1))
	w := testutil.NewVectorWorkload(rng, 3000, 6, 20, metric.L2)
	cost := func(p int) int64 {
		c := metric.NewCounter(w.Dist)
		tbl, err := New(w.Items, c, Options{Pivots: p, Build: Build{Seed: 5}})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, q := range w.Queries {
			c.Reset()
			tbl.Range(q, 0.2)
			total += c.Count()
		}
		return total
	}
	few, many := cost(2), cost(32)
	if many >= few {
		t.Errorf("32 pivots cost %d ≥ 2 pivots cost %d; pivot filtering broken", many, few)
	}
}
