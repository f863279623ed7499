package cascade

import (
	"math"
	"math/rand/v2"
	"testing"

	"mvptree/internal/build"
	"mvptree/internal/metric"
)

func uniform(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		out[i] = v
	}
	return out
}

// selectPivots runs GreedySelect over items from the first of them, on a
// counter of its own.
func selectPivots(items [][]float64, p, workers int) (pivots [][]float64, rows [][]float64, dist *metric.Counter[[]float64]) {
	dist = metric.NewCounter(metric.L2)
	b := build.Start(dist, build.Options{Workers: workers})
	pivots, rows = GreedySelect(b, items, p, 0)
	b.Finish()
	return pivots, rows, dist
}

// TestLowerBoundIsValid checks what a structure arms its columns for: the
// rows are the pivots' distances to the items in item order, so for
// random queries max_j |d(q, pivot_j) − rows[j][i]| never exceeds the true
// distance to item i.
func TestLowerBoundIsValid(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	items := uniform(rng, 300, 8)
	pivots, rows, _ := selectPivots(items, 6, 1)
	for qi := 0; qi < 50; qi++ {
		q := uniform(rng, 1, 8)[0]
		for i, it := range items {
			d := metric.L2(q, it)
			for j, pv := range pivots {
				if lb := math.Abs(metric.L2(q, pv) - rows[j][i]); lb > d+1e-12 {
					t.Fatalf("query %d item %d pivot %d: lower bound %v exceeds distance %v", qi, i, j, lb, d)
				}
			}
		}
	}
}

// TestBuildCountsDistances checks selection settles the structure's
// counter with pivots × items: the columns cost nothing beyond it.
func TestBuildCountsDistances(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	_, rows, dist := selectPivots(uniform(rng, 40, 4), 4, 1)
	if want := int64(4 * 40); dist.Count() != want || len(rows) != 4 || len(rows[0]) != 40 {
		t.Fatalf("counter %d for %d rows of %d, want %d", dist.Count(), len(rows), len(rows[0]), want)
	}
}

// TestBuildWorkersIdentical checks parallel row precomputation yields
// the same pivots, rows and count as serial.
func TestBuildWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	items := uniform(rng, 600, 6)
	_, serial, sd := selectPivots(items, 5, 1)
	_, par, pd := selectPivots(items, 5, 4)
	if sd.Count() != pd.Count() {
		t.Fatalf("serial counted %d, parallel %d", sd.Count(), pd.Count())
	}
	for j := range serial {
		for i := range serial[j] {
			if serial[j][i] != par[j][i] {
				t.Fatalf("row %d item %d: serial %v, parallel %v", j, i, serial[j][i], par[j][i])
			}
		}
	}
}

// TestOptionsResolve checks defaulting and the range of each field.
func TestOptionsResolve(t *testing.T) {
	if o, err := (Options{}).Resolve(); err != nil || o.Pivots != DefaultPivots {
		t.Fatalf("zero options resolve to %+v, %v", o, err)
	}
	if o, err := (Options{Pivots: 3, Workers: 2}).Resolve(); err != nil || o != (Options{Pivots: 3, Workers: 2}) {
		t.Fatalf("set options resolve to %+v, %v", o, err)
	}
	for _, bad := range []Options{{Pivots: -1}, {Workers: -1}} {
		if _, err := bad.Resolve(); err == nil {
			t.Errorf("%+v: want an error", bad)
		}
	}
}

// TestGreedySelectMatchesLAESA re-runs the selection loop by hand and
// compares: GreedySelect is the laesa seed loop verbatim.
func TestGreedySelectMatchesLAESA(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0))
	items := uniform(rng, 120, 5)
	dist := metric.NewCounter(metric.L2)
	b := build.Start(dist, build.Options{})
	pivots, rows := GreedySelect(b, items, 6, 17)

	// Reference: the original laesa selection loop.
	minDist := make([]float64, len(items))
	cur := 17
	for j := 0; j < 6; j++ {
		pv := items[cur]
		for i := range pivots[j] {
			if pivots[j][i] != pv[i] {
				t.Fatalf("pivot %d differs from reference", j)
			}
		}
		far, farD := cur, -1.0
		for i := range items {
			d := metric.L2(pv, items[i])
			if rows[j][i] != d {
				t.Fatalf("row %d item %d: %v want %v", j, i, rows[j][i], d)
			}
			if j == 0 || d < minDist[i] {
				minDist[i] = d
			}
			if minDist[i] > farD {
				far, farD = i, minDist[i]
			}
		}
		cur = far
	}
}
