package dynamic

import (
	"math/rand/v2"
	"sort"
	"testing"

	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// model is the trivially correct reference implementation the store is
// checked against: a plain slice with linear operations.
type model struct {
	items [][]float64
}

func (m *model) insert(v []float64) { m.items = append(m.items, v) }

func (m *model) delete(v []float64) int {
	kept := m.items[:0]
	removed := 0
	for _, it := range m.items {
		if metric.L2(it, v) == 0 {
			removed++
			continue
		}
		kept = append(kept, it)
	}
	m.items = kept
	return removed
}

func (m *model) scan() *linear.Scan[[]float64] {
	return linear.New(m.items, metric.NewCounter(metric.L2))
}

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func TestRandomizedOperationsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 5))
	const dim = 5
	var m model
	initial := make([][]float64, 200)
	for i := range initial {
		initial[i] = randVec(rng, dim)
		m.insert(initial[i])
	}
	s, err := New(initial, metric.L2, Options{
		Tree: mvp.Options{Partitions: 2, LeafCapacity: 8, PathLength: 3, Build: mvp.Build{Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(step int) {
		t.Helper()
		if s.Len() != len(m.items) {
			t.Fatalf("step %d: Len = %d, model has %d", step, s.Len(), len(m.items))
		}
		q := randVec(rng, dim)
		for _, r := range []float64{0.2, 0.5, 1.0} {
			got := distSignature(q, s.Range(q, r))
			want := distSignature(q, m.scan().Range(q, r))
			if !equalFloats(got, want) {
				t.Fatalf("step %d: Range(r=%g) distances %v, want %v", step, r, got, want)
			}
		}
		for _, k := range []int{1, 7, 400} {
			got := s.KNN(q, k)
			want := m.scan().KNN(q, k)
			if len(got) != len(want) {
				t.Fatalf("step %d: KNN(k=%d) sizes %d vs %d", step, k, len(got), len(want))
			}
			for i := range got {
				if diff := got[i].Dist - want[i].Dist; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("step %d: KNN(k=%d)[%d] = %g, want %g", step, k, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}

	check(-1)
	for step := 0; step < 300; step++ {
		switch op := rng.IntN(10); {
		case op < 6: // insert a fresh vector
			v := randVec(rng, dim)
			m.insert(v)
			if err := s.Insert(v); err != nil {
				t.Fatal(err)
			}
		case op < 8 && len(m.items) > 0: // delete an existing item
			v := m.items[rng.IntN(len(m.items))]
			wantN := m.delete(v)
			gotN, err := s.Delete(v)
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN {
				t.Fatalf("step %d: Delete removed %d, model %d", step, gotN, wantN)
			}
		default: // delete a (likely absent) random vector
			v := randVec(rng, dim)
			wantN := m.delete(v)
			gotN, err := s.Delete(v)
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN {
				t.Fatalf("step %d: Delete(absent) removed %d, model %d", step, gotN, wantN)
			}
		}
		if step%25 == 0 {
			check(step)
		}
	}
	check(300)
	if s.Rebuilds() < 2 {
		t.Errorf("only %d rebuilds over 300 updates; the rebuild rule is not firing", s.Rebuilds())
	}
}

func distSignature(q []float64, items [][]float64) []float64 {
	out := make([]float64, len(items))
	for i, it := range items {
		out[i] = metric.L2(q, it)
	}
	sort.Float64s(out)
	return out
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDuplicateDeleteRemovesAllCopies(t *testing.T) {
	v := []float64{1, 2}
	items := [][]float64{v, {3, 4}, v, v}
	s, err := New(items, metric.L2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Delete([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || s.Len() != 1 {
		t.Errorf("Delete removed %d, Len = %d; want 3, 1", n, s.Len())
	}
	// Deleting again is a no-op.
	n, err = s.Delete([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("second Delete removed %d", n)
	}
}

func TestDeleteFromBuffer(t *testing.T) {
	// A tree of two, far from the queries below: two inserts are not more
	// than its live items, and waste nothing, so they stay buffered.
	s, err := New([][]float64{{10}, {11}}, metric.L2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert([]float64{2}); err != nil {
		t.Fatal(err)
	}
	if s.Buffered() != 2 {
		t.Fatalf("Buffered = %d", s.Buffered())
	}
	n, err := s.Delete([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || s.Len() != 3 || s.Buffered() != 1 || s.Rebuilds() != 1 {
		t.Errorf("Delete from buffer: n=%d Len=%d, %d buffered after %d rebuilds", n, s.Len(), s.Buffered(), s.Rebuilds())
	}
	got := s.Range([]float64{0}, 5)
	if len(got) != 1 || got[0][0] != 2 {
		t.Errorf("Range after buffer delete = %v", got)
	}
}

func TestEmptyStore(t *testing.T) {
	s, err := New[[]float64](nil, metric.L2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Range([]float64{0}, 1) != nil || s.KNN([]float64{0}, 2) != nil {
		t.Error("empty store misbehaves")
	}
	n, err := s.Delete([]float64{0})
	if err != nil || n != 0 {
		t.Errorf("Delete on empty: %d, %v", n, err)
	}
	if err := s.Insert([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if got := s.KNN([]float64{0}, 1); len(got) != 1 || got[0].Dist != 1 {
		t.Errorf("KNN after first insert = %v", got)
	}
}

// TestInvalidOptions: when to rebuild is the store's rule, so the
// options New can refuse are its trees'.
func TestInvalidOptions(t *testing.T) {
	for _, tree := range []mvp.Options{{Partitions: 1}, {Vantages: 3}, {LeafCapacity: -2}, {Vantages: 1, RandomSecondVantage: true}} {
		if _, err := New[[]float64](nil, metric.L2, Options{Tree: tree}); err == nil {
			t.Errorf("tree options %+v accepted", tree)
		}
	}
}

func TestAmortizedCostBeatsPerUpdateRebuild(t *testing.T) {
	// 800 inserts into a 2000-item store, each followed by a query that
	// scans the buffer, must cost far less than 800 full reconstructions:
	// the pivots rule out most of the buffer, so the queries' waste stays
	// short of a build's cost and the store keeps every insert buffered.
	rng := rand.New(rand.NewPCG(92, 5))
	initial := make([][]float64, 2000)
	for i := range initial {
		initial[i] = randVec(rng, 6)
	}
	s, err := New(initial, metric.L2, Options{
		Tree: mvp.Options{Partitions: 3, LeafCapacity: 20, PathLength: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, build := s.DistanceCount(), s.cost
	const inserts = 800
	for i := 0; i < inserts; i++ {
		if err := s.Insert(randVec(rng, 6)); err != nil {
			t.Fatal(err)
		}
		s.Range(randVec(rng, 6), 0.05)
	}
	perInsert := float64(s.DistanceCount()-base) / inserts
	// One rebuild costs ~n·log n ≈ 2000·11 ≈ 22k computations; an insert
	// and its query must cost orders of magnitude below that.
	if perInsert > float64(build)/10 {
		t.Errorf("amortized cost %.0f distance computations an insert and its query, a build %d; scheme not amortizing", perInsert, build)
	}
	if w := s.waste.Load(); w == 0 || w >= build || s.Rebuilds() != 1 || s.Buffered() != inserts {
		t.Errorf("%d inserts, each with a query: waste %d against a build of %d, %d rebuilds, %d buffered; want a waste short of the build, no rebuild",
			inserts, w, build, s.Rebuilds(), s.Buffered())
	}
}

func TestQueriesStayTreeFastAfterRebuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 5))
	initial := make([][]float64, 3000)
	for i := range initial {
		initial[i] = randVec(rng, 4)
	}
	s, err := New(initial, metric.L2, Options{
		Tree: mvp.Options{Partitions: 3, LeafCapacity: 40, PathLength: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Churn: inserts and deletes, then ensure a small range query does
	// not degenerate to a linear scan.
	for i := 0; i < 1000; i++ {
		if err := s.Insert(randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.DistanceCount()
	s.Range(randVec(rng, 4), 0.05)
	cost := s.DistanceCount() - before
	if cost > int64(s.Len())/2 {
		t.Errorf("post-churn query cost %d over %d items; buffer not being folded in", cost, s.Len())
	}
}

func TestFarthestQueriesMatchModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(94, 5))
	initial := make([][]float64, 300)
	for i := range initial {
		initial[i] = randVec(rng, 5)
	}
	var m model
	for _, v := range initial {
		m.insert(v)
	}
	s, err := New(initial, metric.L2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Churn so the tree has tombstones and the buffer has members.
	for i := 0; i < 80; i++ {
		v := randVec(rng, 5)
		m.insert(v)
		if err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		v := m.items[rng.IntN(len(m.items))]
		m.delete(v)
		if _, err := s.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	for qi := 0; qi < 10; qi++ {
		q := randVec(rng, 5)
		for _, r := range []float64{0.3, 0.8, 1.5} {
			got := distSignature(q, s.RangeFarther(q, r))
			want := distSignature(q, m.scan().RangeFarther(q, r))
			if !equalFloats(got, want) {
				t.Fatalf("RangeFarther(r=%g): %d vs %d results", r, len(got), len(want))
			}
		}
		for _, k := range []int{1, 5, 500} {
			a := s.KFarthest(q, k)
			b := m.scan().KFarthest(q, k)
			if len(a) != len(b) {
				t.Fatalf("KFarthest(k=%d): %d vs %d", k, len(a), len(b))
			}
			for i := range a {
				if d := a[i].Dist - b[i].Dist; d > 1e-12 || d < -1e-12 {
					t.Fatalf("KFarthest(k=%d)[%d]: %g vs %g", k, i, a[i].Dist, b[i].Dist)
				}
			}
		}
	}
}
