package metric

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// checkContract asserts the BoundedDistanceFunc contract for one call:
// a return ≤ bound must equal the exact kernel bit-for-bit, and a
// return > bound must only ever happen when the exact kernel also
// exceeds the bound.
func checkContract(t *testing.T, name string, exact, got, bound float64) {
	t.Helper()
	if got <= bound {
		if got != exact {
			t.Fatalf("%s: bounded returned %v (≤ bound %v) but exact kernel returns %v", name, got, bound, exact)
		}
	} else if exact <= bound {
		t.Fatalf("%s: bounded abandoned with %v but exact distance %v is within bound %v", name, got, exact, bound)
	}
}

// boundsFor returns the adversarial bound schedule for a pair with
// exact distance d: the degenerate bounds, the distance itself and its
// floating-point neighbours, and a spread of fractions around it.
func boundsFor(d float64) []float64 {
	return []float64{
		math.Inf(1), 0,
		d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)),
		d / 2, d * 0.9, d * 0.99, d * 1.01, d * 1.1, d * 2,
	}
}

func TestBoundedVectorKernelsAgreeWithExact(t *testing.T) {
	kernels := []struct {
		name    string
		exact   DistanceFunc[[]float64]
		bounded BoundedDistanceFunc[[]float64]
	}{
		{"L1", L1, L1UpTo},
		{"L2", L2, L2UpTo},
		{"LInf", LInf, LInfUpTo},
		{"Canberra", Canberra, CanberraUpTo},
		{"Lp(3)", Lp(3), LpUpTo(3)},
		{"Lp(1.5)", Lp(1.5), LpUpTo(1.5)},
	}
	w := []float64{0.5, 2, 1, 3, 0.25, 1, 1, 2, 0.75, 1.5, 1, 1, 2, 1, 0.5, 1, 1, 1, 2, 1}
	kernels = append(kernels,
		struct {
			name    string
			exact   DistanceFunc[[]float64]
			bounded BoundedDistanceFunc[[]float64]
		}{"WeightedLp(2.5)", WeightedLp(2.5, w), WeightedLpUpTo(2.5, w)},
		struct {
			name    string
			exact   DistanceFunc[[]float64]
			bounded BoundedDistanceFunc[[]float64]
		}{"WeightedLp(Inf)", WeightedLp(math.Inf(1), w), WeightedLpUpTo(math.Inf(1), w)},
	)

	rng := rand.New(rand.NewPCG(41, 7))
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			for trial := 0; trial < 400; trial++ {
				a := make([]float64, len(w))
				b := make([]float64, len(w))
				for i := range a {
					a[i] = rng.Float64()*2 - 1
					b[i] = rng.Float64()*2 - 1
				}
				if trial%5 == 0 {
					// Near-identical pair: distance concentrated in the
					// last dimension, the worst case for abandonment.
					copy(b, a)
					b[len(b)-1] += rng.Float64() * 0.01
				}
				exact := k.exact(a, b)
				for _, bound := range boundsFor(exact) {
					checkContract(t, k.name, exact, k.bounded(a, b, bound), bound)
				}
				for i := 0; i < 4; i++ {
					bound := rng.Float64() * exact * 2
					checkContract(t, k.name, exact, k.bounded(a, b, bound), bound)
				}
			}
		})
	}
}

// TestL2UpToSqrtBoundary drives the squared-space comparison through
// the rounding regime where fl(partial) exceeds fl(bound²) while
// fl(√partial) still equals the bound — the case the sqrt verification
// step exists for.
func TestL2UpToSqrtBoundary(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 19))
	for trial := 0; trial < 5000; trial++ {
		dim := 1 + rng.IntN(24)
		a := make([]float64, dim)
		b := make([]float64, dim)
		for i := range a {
			a[i] = rng.Float64()
			b[i] = a[i] + (rng.Float64()-0.5)*1e-3
		}
		exact := L2(a, b)
		// Bounds straddling the exact value at ulp resolution.
		for _, bound := range []float64{
			exact,
			math.Nextafter(exact, 0),
			math.Nextafter(math.Nextafter(exact, 0), 0),
			math.Nextafter(exact, math.Inf(1)),
		} {
			checkContract(t, "L2", exact, L2UpTo(a, b, bound), bound)
		}
	}
}

func TestBoundedStringKernelsAgreeWithExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 23))
	alphabet := "abcde"
	randWord := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.IntN(len(alphabet))])
		}
		return sb.String()
	}
	kernels := []struct {
		name    string
		exact   DistanceFunc[string]
		bounded BoundedDistanceFunc[string]
	}{
		{"Edit", Edit, EditUpTo},
		{"Hamming", Hamming, HammingUpTo},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			for trial := 0; trial < 2000; trial++ {
				a := randWord(rng.IntN(20))
				b := randWord(rng.IntN(20))
				if trial%4 == 0 {
					// Mutate a into b so distances are small and the
					// threshold band actually gets exercised.
					rb := []byte(a)
					for i := range rb {
						if rng.IntN(6) == 0 {
							rb[i] = alphabet[rng.IntN(len(alphabet))]
						}
					}
					b = string(rb)
				}
				exact := k.exact(a, b)
				bounds := []float64{math.Inf(1), 0, exact, exact - 0.5, exact + 0.5,
					exact - 1, exact + 1, float64(rng.IntN(22)), 2.5}
				for _, bound := range bounds {
					checkContract(t, k.name, exact, k.bounded(a, b, bound), bound)
				}
			}
		})
	}
}

// FuzzEditKernels is the one differential fuzzer of the edit kernels:
// Edit must equal the two-row reference program, EditUpTo must obey the
// BoundedDistanceFunc contract at the bounds either side of the
// distance, the degenerate ones and the fuzzer's own, in both argument
// orders, and EditRow must give the reference with either string as the
// row's point, in a row of one, in a row whose ids repeat and run out
// of order, and in rows of every length up to nine over texts of mixed
// lengths, so every lane of the four-text sweep and every remainder is
// used. The seeds sit on the kernels' seams: the 64-byte word of the
// bit-parallel sweep (63/64/65 bytes, on one side and on both), bytes
// ≥ 0x80 and NUL in the match table, long shared prefixes and suffixes
// (trimmed before any kernel runs), and empty strings.
func FuzzEditKernels(f *testing.F) {
	f.Add("kitten", "sitting", 2.0)
	f.Add("", "abc", 0.0)
	f.Add("abcdefgh", "abcdefgh", 1.0)
	f.Add("aaaa", "bbbb", 3.5)
	f.Add("", "", 1.0)
	x63, y64, z65 := strings.Repeat("abcdefg", 9), strings.Repeat("hgfedcba", 8), strings.Repeat("badce", 13)
	f.Add(x63, y64, 70.0)
	f.Add(y64, z65, 3.0)
	f.Add(x63, z65, 40.0)
	f.Add(z65, z65[1:]+"q", 1.0)
	f.Add(y64+"x", y64[:40]+"\x00\xff"+y64[40:], 2.0)
	f.Add("\x00\x80\xfe\xff", "\xff\x00\x80", 2.0)
	f.Add(x63+"left"+y64, x63+"right"+y64, 4.0)
	f.Add(strings.Repeat("a", 200), strings.Repeat("a", 130)+strings.Repeat("b", 70), 64.0)
	f.Fuzz(func(t *testing.T, a, b string, bound float64) {
		if len(a) > 300 || len(b) > 300 || math.IsNaN(bound) {
			return
		}
		d := editReference(a, b)
		if got := Edit(a, b); got != d {
			t.Fatalf("Edit(%q, %q) = %v, reference %v", a, b, got, d)
		}
		if got := Edit(b, a); got != d {
			t.Fatalf("Edit(%q, %q) = %v, reference %v", b, a, got, d)
		}
		for _, bnd := range []float64{0, d - 1, d - 0.5, d, d + 0.5, math.Inf(1), math.Abs(bound)} {
			checkContract(t, "EditUpTo", d, EditUpTo(a, b, bnd), bnd)
			checkContract(t, "EditUpTo swapped", d, EditUpTo(b, a, bnd), bnd)
		}
		var out [5]float64
		EditRow(a, []string{b}, []int32{0}, out[:1])
		if out[0] != d {
			t.Fatalf("EditRow(%q, [%q]) = %v, reference %v", a, b, out[0], d)
		}
		EditRow(b, []string{a}, []int32{0}, out[:1])
		if out[0] != d {
			t.Fatalf("EditRow(%q, [%q]) = %v, reference %v", b, a, out[0], d)
		}
		items := []string{a, b, a + b, ""}
		ids := []int32{2, 0, 3, 0, 1}
		EditRow(a, items, ids, out[:])
		for i, id := range ids {
			if want := editReference(items[id], a); out[i] != want {
				t.Fatalf("EditRow(%q, …)[%d] over %q = %v, reference %v", a, i, items[id], out[i], want)
			}
		}
		// Every lane shape: rows of 0 to 9 ids, which is every remainder
		// mod 4, whose first group of four holds texts of 200, 0, 64 and 1
		// bytes and whose second 65, 63 and the fuzzer's two, against
		// points either side of the 64-byte seam.
		fill := a + b + "q"
		fit := func(n int) string { return strings.Repeat(fill, n/len(fill)+1)[:n] }
		items = append(items, fit(0), fit(1), fit(63), fit(64), fit(65), fit(200))
		ids = []int32{9, 4, 7, 5, 8, 6, 0, 1, 2, 3}
		var row, want [10]float64
		for _, n := range []int{0, 1, 64, 65} {
			p := fit(n)
			for i, x := range items {
				want[i] = editReference(x, p)
			}
			for l := range len(ids) {
				EditRow(p, items, ids[:l], row[:l])
				for i, id := range ids[:l] {
					if row[i] != want[id] {
						t.Fatalf("EditRow(%q, …)[%d] of %d over %q = %v, reference %v", p, i, l, items[id], row[i], want[id])
					}
				}
			}
		}
	})
}

// FuzzL2UpTo holds the kernels that measure vector vantage distances in
// Search and SearchBatch — L1UpTo, L2UpTo and LInfUpTo — to the
// BoundedDistanceFunc contract against their exact forms. The five floats
// are the first two coordinates of a and b and the bound; more supplies
// the other coordinates, a byte each, alternately to a and b (missing
// ones are 0). A vector has at least 9 coordinates, two four-wide chunks
// and a tail, so the unrolled loops' per-chunk abandon runs as well as
// their tails.
func FuzzL2UpTo(f *testing.F) {
	f.Add(0.1, 0.2, 0.3, 0.4, 0.25, []byte(nil))
	f.Add(1.0, 1.0, 1.0, 1.0, 0.0, []byte(nil))
	// Everything in the second chunk: the first check passes, the second
	// abandons.
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, []byte{0, 0, 0, 0, 0, 0, 32})
	kernels := []struct {
		name  string
		exact DistanceFunc[[]float64]
		upTo  BoundedDistanceFunc[[]float64]
	}{
		{"L1", L1, L1UpTo},
		{"L2", L2, L2UpTo},
		{"LInf", LInf, LInfUpTo},
	}
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1, bound float64, more []byte) {
		for _, v := range []float64{a0, a1, b0, b1, bound} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		more = more[:min(len(more), 64)]
		dim := max(9, 2+(len(more)+1)/2)
		a, b := make([]float64, dim), make([]float64, dim)
		a[0], a[1], b[0], b[1] = a0, a1, b0, b1
		for k, c := range more {
			v := float64(int8(c)) / 16
			if k%2 == 0 {
				a[2+k/2] = v
			} else {
				b[2+k/2] = v
			}
		}
		bnd := math.Abs(bound)
		for _, k := range kernels {
			exact, got := k.exact(a, b), k.upTo(a, b, bnd)
			if got <= bnd && got != exact {
				t.Fatalf("%sUpTo within bound %v returned %v, exact %v", k.name, bnd, got, exact)
			}
			if got > bnd && exact <= bnd {
				t.Fatalf("%sUpTo abandoned (%v) but exact %v ≤ bound %v", k.name, got, exact, bnd)
			}
		}
	})
}

func TestCounterProbesBoundedRegistry(t *testing.T) {
	c := NewCounter(L2)
	if c.Bounded() == nil {
		t.Fatal("NewCounter(L2) did not pick up the registered bounded kernel")
	}
	a := []float64{0, 0, 0}
	b := []float64{3, 4, 12}
	if got := c.DistanceUpTo(a, b, math.Inf(1)); got != 13 {
		t.Fatalf("DistanceUpTo with +Inf bound = %v, want 13", got)
	}
	if got := c.DistanceUpTo(a, b, 1); got <= 1 {
		t.Fatalf("DistanceUpTo should certify > bound, got %v", got)
	}
	if c.Count() != 2 {
		t.Fatalf("DistanceUpTo must count like Distance: count = %d, want 2", c.Count())
	}

	// A closure has no registry entry and must fall back to exact.
	closure := func(a, b []float64) float64 { return L2(a, b) }
	cc := NewCounter(closure)
	if cc.Bounded() != nil {
		t.Fatal("closure unexpectedly matched the bounded registry")
	}
	if got := cc.DistanceUpTo(a, b, 1); got != 13 {
		t.Fatalf("fallback DistanceUpTo = %v, want exact 13", got)
	}
	cc.SetBounded(L2UpTo)
	// Eight dimensions with all the mass in the first unrolled chunk:
	// the kernel abandons at the chunk boundary with √169 = 13, visibly
	// different from the exact √194 ≈ 13.93.
	la := []float64{0, 0, 0, 0, 0, 0, 0, 0}
	lb := []float64{3, 4, 12, 0, 5, 0, 0, 0}
	exactLong := L2(la, lb)
	if got := cc.DistanceUpTo(la, lb, 1); got <= 1 || got == exactLong {
		t.Fatalf("SetBounded fast path not used: got %v (exact %v)", got, exactLong)
	}
	cc.SetBounded(nil)
	if got := cc.DistanceUpTo(la, lb, 1); got != exactLong {
		t.Fatalf("SetBounded(nil) should restore exact fallback, got %v", got)
	}
}

func TestLpSpecializesToFastKernels(t *testing.T) {
	// Behaviour: identical to L1/L2 on random input (the generic pow
	// loop would differ in the last ulp for L2 on most inputs, so exact
	// equality over many trials is strong evidence of specialization)…
	rng := rand.New(rand.NewPCG(77, 3))
	lp1, lp2 := Lp(1), Lp(2)
	for trial := 0; trial < 200; trial++ {
		a := make([]float64, 16)
		b := make([]float64, 16)
		for i := range a {
			a[i] = rng.Float64() * 10
			b[i] = rng.Float64() * 10
		}
		if lp1(a, b) != L1(a, b) {
			t.Fatalf("Lp(1) diverges from L1")
		}
		if lp2(a, b) != L2(a, b) {
			t.Fatalf("Lp(2) diverges from L2")
		}
	}
	// …and, decisively: the returned functions carry L1/L2's registered
	// bounded kernels, which only top-level functions can.
	if NewCounter(lp1).Bounded() == nil {
		t.Fatal("Lp(1) did not return the registered L1 kernel")
	}
	if NewCounter(lp2).Bounded() == nil {
		t.Fatal("Lp(2) did not return the registered L2 kernel")
	}
	if NewCounter(Lp(math.Inf(1))).Bounded() == nil {
		t.Fatal("Lp(+Inf) did not return the registered LInf kernel")
	}
}

func TestLpUpToSpecializes(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := LpUpTo(1)(a, b, math.Inf(1)); got != 7 {
		t.Fatalf("LpUpTo(1) = %v, want 7", got)
	}
	if got := LpUpTo(2)(a, b, math.Inf(1)); got != 5 {
		t.Fatalf("LpUpTo(2) = %v, want 5", got)
	}
	if got := LpUpTo(math.Inf(1))(a, b, math.Inf(1)); got != 4 {
		t.Fatalf("LpUpTo(Inf) = %v, want 4", got)
	}
}
