package metric

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestL1KnownValues(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{0, 0}, []float64{0, 0}, 0},
		{[]float64{0, 0}, []float64{3, 4}, 7},
		{[]float64{1, -2, 3}, []float64{-1, 2, 3}, 6},
		{[]float64{}, []float64{}, 0},
		{[]float64{2.5}, []float64{-2.5}, 5},
	}
	for _, c := range cases {
		if got := L1(c.a, c.b); got != c.want {
			t.Errorf("L1(%v, %v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestL2KnownValues(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{0, 0}, []float64{3, 4}, 5},
		{[]float64{1, 1, 1, 1}, []float64{0, 0, 0, 0}, 2},
		{[]float64{-1}, []float64{1}, 2},
		{[]float64{0, 0}, []float64{0, 0}, 0},
	}
	for _, c := range cases {
		if got := L2(c.a, c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("L2(%v, %v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestLInfKnownValues(t *testing.T) {
	if got := LInf([]float64{1, -5, 2}, []float64{0, 0, 0}); got != 5 {
		t.Errorf("LInf = %g, want 5", got)
	}
	if got := LInf(nil, nil); got != 0 {
		t.Errorf("LInf(nil, nil) = %g, want 0", got)
	}
}

func TestLpMatchesSpecializations(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	l1 := Lp(1)
	l2 := Lp(2)
	for i := 0; i < 100; i++ {
		a := randVec(rng, 8)
		b := randVec(rng, 8)
		if !almostEqual(l1(a, b), L1(a, b), 1e-9) {
			t.Fatalf("Lp(1) disagrees with L1 on %v, %v", a, b)
		}
		if !almostEqual(l2(a, b), L2(a, b), 1e-9) {
			t.Fatalf("Lp(2) disagrees with L2 on %v, %v", a, b)
		}
	}
}

func TestLpInfinity(t *testing.T) {
	f := Lp(math.Inf(1))
	a := []float64{1, 9, 3}
	b := []float64{2, 4, 3}
	if got := f(a, b); got != 5 {
		t.Errorf("Lp(+Inf) = %g, want 5", got)
	}
}

func TestLpPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lp(0.5) did not panic")
		}
	}()
	Lp(0.5)
}

func TestLengthMismatchPanics(t *testing.T) {
	fns := map[string]DistanceFunc[[]float64]{
		"L1": L1, "L2": L2, "LInf": LInf, "Lp(3)": Lp(3),
	}
	for name, fn := range fns {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on length mismatch", name)
				}
			}()
			fn([]float64{1}, []float64{1, 2})
		}()
	}
}

// TestL2RowIsL2 holds the row kernel to L2 bit for bit: every dimension
// the four-wide loops split differently, rows of every length around a
// multiple of four and ids out of order and repeated, with infinities
// and NaN among the coordinates; and a vector of another length panics.
func TestL2RowIsL2(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -0.5}
	for _, dim := range []int{0, 1, 3, 4, 5, 20, 33} {
		items := make([][]float64, 64)
		for i := range items {
			items[i] = make([]float64, dim)
			for j := range items[i] {
				items[i][j] = rng.NormFloat64()
				if rng.IntN(50) == 0 {
					items[i][j] = specials[rng.IntN(len(specials))]
				}
			}
		}
		for _, n := range []int{0, 1, 3, 4, 5, 8, 9, 1000} {
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(rng.IntN(len(items)))
			}
			p := items[rng.IntN(len(items))]
			out := make([]float64, n+1)
			L2Row(p, items, ids, out)
			for i, id := range ids {
				if want := L2(items[id], p); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("dim %d, row of %d: out[%d] = %v, L2 = %v", dim, n, i, out[i], want)
				}
			}
		}
	}
	items := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2, 3}, {1, 2}}
	defer func() {
		if recover() == nil {
			t.Error("L2Row did not panic on a vector of another length")
		}
	}()
	L2Row([]float64{0, 0}, items, []int32{0, 1, 2, 3, 4}, make([]float64, 5))
}

func TestWeightedLpUnitWeightsMatchLp(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	w := []float64{1, 1, 1, 1, 1}
	for _, p := range []float64{1, 2, 3, math.Inf(1)} {
		wf := WeightedLp(p, w)
		pf := Lp(p)
		for i := 0; i < 50; i++ {
			a := randVec(rng, 5)
			b := randVec(rng, 5)
			if !almostEqual(wf(a, b), pf(a, b), 1e-9) {
				t.Fatalf("WeightedLp(%g, unit) disagrees with Lp(%g)", p, p)
			}
		}
	}
}

func TestWeightedLpScalesAxes(t *testing.T) {
	f := WeightedLp(1, []float64{2, 3})
	if got := f([]float64{0, 0}, []float64{1, 1}); got != 5 {
		t.Errorf("weighted L1 = %g, want 5", got)
	}
}

func TestWeightedLpRejectsBadWeights(t *testing.T) {
	for _, w := range [][]float64{{0, 1}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WeightedLp accepted weights %v", w)
				}
			}()
			WeightedLp(2, w)
		}()
	}
}

func TestWeightedLpCopiesWeights(t *testing.T) {
	w := []float64{1, 1}
	f := WeightedLp(1, w)
	w[0] = 100 // mutating caller's slice must not affect the metric
	if got := f([]float64{0, 0}, []float64{1, 1}); got != 2 {
		t.Errorf("WeightedLp did not copy weights: got %g, want 2", got)
	}
}

func TestScaled(t *testing.T) {
	f := Scaled(L1, 0.5)
	if got := f([]float64{0}, []float64{4}); got != 2 {
		t.Errorf("Scaled = %g, want 2", got)
	}
	for _, factor := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scaled accepted factor %g", factor)
				}
			}()
			Scaled(L1, factor)
		}()
	}
}

// Property: every Lp variant satisfies the metric axioms on random samples.
func TestLpAxiomsQuick(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	fns := map[string]DistanceFunc[[]float64]{
		"L1":       L1,
		"L2":       L2,
		"LInf":     LInf,
		"Lp(1.5)":  Lp(1.5),
		"Lp(3)":    Lp(3),
		"weighted": WeightedLp(2, []float64{0.5, 2, 1, 3, 0.25, 1, 1, 1}),
	}
	for name, fn := range fns {
		sample := make([][]float64, 12)
		for i := range sample {
			sample[i] = randVec(rng, 8)
		}
		if err := CheckAxioms(fn, sample, 1e-9); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property via testing/quick: symmetry and triangle inequality of L2 hold
// for arbitrary generated vectors.
func TestL2TriangleQuick(t *testing.T) {
	f := func(a, b, c [6]float64) bool {
		x, y, z := a[:], b[:], c[:]
		dxy, dxz, dzy := L2(x, y), L2(x, z), L2(z, y)
		return dxy == L2(y, x) && dxy <= dxz+dzy+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.Float64()*20 - 10
	}
	return v
}

func TestCanberraKnownValues(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{0, 0}, []float64{0, 0}, 0},
		{[]float64{1, 0}, []float64{0, 0}, 1},
		{[]float64{1, 1}, []float64{1, 1}, 0},
		{[]float64{1, 2}, []float64{3, 2}, 0.5},
		{[]float64{-1, 0}, []float64{1, 0}, 1},
	}
	for _, c := range cases {
		if got := Canberra(c.a, c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Canberra(%v, %v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestCanberraAxioms(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	sample := make([][]float64, 10)
	for i := range sample {
		sample[i] = randVec(rng, 5)
	}
	sample = append(sample, []float64{0, 0, 0, 0, 0})
	if err := CheckAxioms(Canberra, sample, 1e-9); err != nil {
		t.Error(err)
	}
}
