package cascade

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"mvptree/internal/build"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
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

// buildFilter assembles a Filter over n uniform vectors with the first
// p of them as pivots, mirroring what a tree's EnableCascade walk does.
func buildFilter(t *testing.T, opts Options, items [][]float64) (*Filter[[]float64], *metric.Counter[[]float64]) {
	t.Helper()
	dist := metric.NewCounter(metric.L2)
	b, err := NewBuilder[[]float64](opts)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	for _, it := range items {
		if b.AddPivot(it) == 0 {
			break
		}
	}
	b.AddItems(items)
	f, err := b.Build(dist)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f, dist
}

// TestLowerBoundIsValid checks the core contract: for random queries,
// LowerBound never exceeds the true distance to any stored item.
func TestLowerBoundIsValid(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	items := uniform(rng, 300, 8)
	f, _ := buildFilter(t, Options{Pivots: 6, MaxPerQuery: 6}, items)
	for qi := 0; qi < 50; qi++ {
		q := uniform(rng, 1, 8)[0]
		c := f.Get()
		for j := 0; j < f.Pivots(); j++ {
			c.Register(int32(j), metric.L2(q, f.Pivot(j)))
		}
		for i, it := range items {
			lb := f.LowerBound(c, int32(i))
			d := metric.L2(q, it)
			if lb > d+1e-12 {
				t.Fatalf("query %d item %d: lower bound %v exceeds distance %v", qi, i, lb, d)
			}
		}
		f.Put(c)
	}
}

// TestLowerBoundMatchesBruteForce checks LowerBound against a direct
// max_j |qd − d(pivot_j, item)| computation.
func TestLowerBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	items := uniform(rng, 100, 4)
	f, _ := buildFilter(t, Options{Pivots: 4, MaxPerQuery: 4}, items)
	q := uniform(rng, 1, 4)[0]
	c := f.Get()
	defer f.Put(c)
	for j := 0; j < f.Pivots(); j++ {
		c.Register(int32(j), metric.L2(q, f.Pivot(j)))
	}
	for i, it := range items {
		want := 0.0
		for j := 0; j < f.Pivots(); j++ {
			b := math.Abs(metric.L2(q, f.Pivot(j)) - metric.L2(f.Pivot(j), it))
			want = math.Max(want, b)
		}
		if got := f.LowerBound(c, int32(i)); math.Abs(got-want) > 1e-12 {
			t.Fatalf("item %d: LowerBound %v, brute force %v", i, got, want)
		}
	}
}

// TestMaxPerQueryCap checks registrations beyond the cap are dropped
// and Wants flips false.
func TestMaxPerQueryCap(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	items := uniform(rng, 50, 4)
	f, _ := buildFilter(t, Options{Pivots: 8, MaxPerQuery: 3}, items)
	c := f.Get()
	defer f.Put(c)
	for j := 0; j < 8; j++ {
		if want := j < 3; c.Wants() != want {
			t.Fatalf("after %d registrations Wants() = %v, want %v", j, c.Wants(), want)
		}
		c.Register(int32(j), float64(j))
	}
	if c.Registered() != 3 {
		t.Fatalf("Registered() = %d after cap 3", c.Registered())
	}
}

// TestBuilderStampsAndIDs checks the stamp (pivot index + 1, 0 when
// full) and id (contiguous) conventions the tree walks rely on.
func TestBuilderStampsAndIDs(t *testing.T) {
	b, err := NewBuilder[[]float64](Options{Pivots: 2, MaxPerQuery: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{1}
	if got := b.AddPivot(v); got != 1 {
		t.Fatalf("first AddPivot stamp = %d, want 1", got)
	}
	if got := b.AddPivot(v); got != 2 {
		t.Fatalf("second AddPivot stamp = %d, want 2", got)
	}
	if got := b.AddPivot(v); got != 0 {
		t.Fatalf("over-cap AddPivot stamp = %d, want 0", got)
	}
	if base := b.AddItems([][]float64{v, v, v}); base != 0 {
		t.Fatalf("first AddItems base = %d, want 0", base)
	}
	if base := b.AddItems([][]float64{v}); base != 3 {
		t.Fatalf("second AddItems base = %d, want 3", base)
	}
}

// TestBuildCountsDistances checks row precomputation settles the
// structure's counter with pivots × items.
func TestBuildCountsDistances(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	items := uniform(rng, 40, 4)
	f, dist := buildFilter(t, Options{Pivots: 4, MaxPerQuery: 4}, items)
	if want := int64(4 * 40); dist.Count() != want || f.BuildDistances() != want {
		t.Fatalf("counter %d, BuildDistances %d, want %d", dist.Count(), f.BuildDistances(), want)
	}
}

// TestBuildWorkersIdentical checks parallel row precomputation yields
// the same rows and count as serial.
func TestBuildWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	items := uniform(rng, 600, 6)
	serial, _ := buildFilter(t, Options{Pivots: 5, MaxPerQuery: 5}, items)
	par, _ := buildFilter(t, Options{Pivots: 5, MaxPerQuery: 5, Workers: 4}, items)
	for j := range serial.rows {
		for i := range serial.rows[j] {
			if serial.rows[j][i] != par.rows[j][i] {
				t.Fatalf("row %d item %d: serial %v, parallel %v", j, i, serial.rows[j][i], par.rows[j][i])
			}
		}
	}
}

// TestEmptyBuildErrors checks Build refuses a walk that collected no
// pivots or no items.
func TestEmptyBuildErrors(t *testing.T) {
	dist := metric.NewCounter(metric.L2)
	b, _ := NewBuilder[[]float64](Options{})
	if _, err := b.Build(dist); err == nil {
		t.Fatal("Build with no pivots/items: want error")
	}
}

// TestNewFilterValidates checks shape validation of wrapped tables.
func TestNewFilterValidates(t *testing.T) {
	p := [][]float64{{1}, {2}}
	if _, err := NewFilter(p, [][]float64{{1, 2}}, 0); err == nil {
		t.Fatal("pivot/row count mismatch: want error")
	}
	if _, err := NewFilter(p, [][]float64{{1, 2}, {1}}, 0); err == nil {
		t.Fatal("ragged rows: want error")
	}
	f, err := NewFilter(p, [][]float64{{1, 2}, {3, 4}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.MaxPerQuery() != 2 {
		t.Fatalf("MaxPerQuery defaulted to %d, want len(pivots)=2", f.MaxPerQuery())
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

// TestCachePoolReuseConcurrent hammers Get/Put and LowerBound from many
// goroutines for the race detector and checks caches come back clean.
func TestCachePoolReuseConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0))
	items := uniform(rng, 200, 6)
	f, _ := buildFilter(t, Options{Pivots: 8, MaxPerQuery: 4}, items)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qrng := rand.New(rand.NewPCG(100, uint64(g)))
			for iter := 0; iter < 200; iter++ {
				q := uniform(qrng, 1, 6)[0]
				c := f.Get()
				if c.Registered() != 0 {
					t.Errorf("pooled cache arrived dirty: %d registered", c.Registered())
				}
				for j := 0; j < f.Pivots() && c.Wants(); j++ {
					c.Register(int32(j), metric.L2(q, f.Pivot(j)))
				}
				for i := range items {
					if lb := f.LowerBound(c, int32(i)); lb > metric.L2(q, items[i])+1e-12 {
						t.Errorf("invalid bound under concurrency")
					}
				}
				f.Put(c)
			}
		}(g)
	}
	wg.Wait()
}

// TestGetAllocsSteadyState checks the pooled cache path allocates
// nothing once warm.
func TestGetAllocsSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	rng := rand.New(rand.NewPCG(2, 0))
	items := uniform(rng, 60, 4)
	f, _ := buildFilter(t, Options{Pivots: 4, MaxPerQuery: 4}, items)
	q := uniform(rng, 1, 4)[0]
	allocs := testing.AllocsPerRun(200, func() {
		c := f.Get()
		for j := 0; j < f.Pivots(); j++ {
			c.Register(int32(j), metric.L2(q, f.Pivot(j)))
		}
		for i := range items {
			_ = f.LowerBound(c, int32(i))
		}
		f.Put(c)
	})
	if allocs > 0 {
		t.Fatalf("Get/Register/LowerBound/Put allocates %.1f/op, want 0", allocs)
	}
}
