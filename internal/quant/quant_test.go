package quant

import (
	"math"
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
)

// exactFor returns the exact kernel a QuantKind lower-bounds.
func exactFor(kind metric.QuantKind) func(a, b []float64) float64 {
	switch kind {
	case metric.QuantL1:
		return metric.L1
	case metric.QuantL2:
		return metric.L2
	case metric.QuantLInf:
		return metric.LInf
	}
	panic("no exact kernel")
}

var kinds = []metric.QuantKind{metric.QuantL1, metric.QuantL2, metric.QuantLInf}

// genVectors builds a dataset with deliberately nasty per-dimension
// scales: huge magnitudes, tiny ranges, constant dimensions and
// sign-crossing ranges, to exercise the float-safety margins.
func genVectors(rng *rand.Rand, n, dim int) [][]float64 {
	center := make([]float64, dim)
	width := make([]float64, dim)
	for j := range center {
		switch j % 4 {
		case 0: // unit scale
			center[j], width[j] = rng.Float64()*2-1, 1
		case 1: // huge offset, small range
			center[j], width[j] = (rng.Float64()*2-1)*1e9, 1e-3
		case 2: // constant dimension
			center[j], width[j] = rng.Float64()*10, 0
		default: // wide sign-crossing range
			center[j], width[j] = 0, 1e4
		}
	}
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = center[j] + (rng.Float64()*2-1)*width[j]
		}
		out[i] = v
	}
	return out
}

// TestLowerBoundNeverExceedsExact is the property test of the
// pre-filter's whole contract: for random datasets and queries, across
// all three metric shapes, the reported lower
// bound never exceeds the exact distance, and a positive PruneAt
// decision never fires at a bound the exact distance does not exceed.
func TestLowerBoundNeverExceedsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, mode := range []Mode{SQ8} {
		for _, kind := range kinds {
			exact := exactFor(kind)
			for _, dim := range []int{1, 3, 8, 20, 50} {
				items := genVectors(rng, 64, dim)
				q, err := Build(kind, mode, [][][]float64{items})
				if err != nil {
					t.Fatalf("%v/%v dim=%d: Build: %v", mode, kind, dim, err)
				}
				codes := q.Codes[0]
				var p Prepared
				for qi := 0; qi < 8; qi++ {
					query := genVectors(rng, 1, dim)[0]
					q.Set.Prepare(&p, query)
					for i, v := range items {
						d := exact(query, v)
						lb := q.Set.LowerBoundAt(&p, codes, i)
						if lb > d {
							t.Fatalf("%v/%v dim=%d item %d: lower bound %v exceeds exact %v", mode, kind, dim, i, lb, d)
						}
						// Prune decisions must be certificates: pruned ⟹ exact > bound.
						for _, bound := range []float64{0, d * 0.5, d * 0.999999, d, d * 1.5, math.Inf(1)} {
							if q.Set.PruneAt(&p, codes, i, bound) && d <= bound {
								t.Fatalf("%v/%v dim=%d item %d: pruned at bound %v but exact is %v", mode, kind, dim, i, bound, d)
							}
						}
					}
				}
			}
		}
	}
}

// TestPruneActuallyPrunes guards against the filter silently degrading
// to a no-op: with tight SQ8 cells on a well-scaled dataset, far
// candidates at a small bound must be pruned nearly always.
func TestPruneActuallyPrunes(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	dim := 20
	items := make([][]float64, 256)
	for i := range items {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = v
	}
	for _, mode := range []Mode{SQ8} {
		q, err := Build(metric.QuantL2, mode, [][][]float64{items})
		if err != nil {
			t.Fatal(err)
		}
		codes := q.Codes[0]
		var p Prepared
		query := make([]float64, dim)
		for j := range query {
			query[j] = rng.Float64()
		}
		q.Set.Prepare(&p, query)
		pruned := 0
		for i, v := range items {
			if metric.L2(query, v) < 0.3 {
				continue
			}
			if q.Set.PruneAt(&p, codes, i, 0.3) {
				pruned++
			}
		}
		if pruned < len(items)/2 {
			t.Fatalf("%v: pruned only %d of %d far candidates", mode, pruned, len(items))
		}
	}
}

// FuzzPruneSoundness drives the SQ8 prune decisions from fuzzed
// scalar inputs: whatever the coordinates, a prune must certify that
// the exact distance exceeds the bound.
func FuzzPruneSoundness(f *testing.F) {
	f.Add(0.25, 0.75, 0.5, 0.3, uint8(2))
	f.Add(1e9, -1e9, 0.0, 1.0, uint8(0))
	f.Add(0.1, 0.1000001, 0.1, 0.0, uint8(1))
	f.Fuzz(func(t *testing.T, a, b, qc, bound float64, kindSel uint8) {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) ||
			math.IsNaN(qc) || math.IsInf(qc, 0) || math.IsNaN(bound) {
			t.Skip()
		}
		kind := kinds[int(kindSel)%len(kinds)]
		exact := exactFor(kind)
		items := [][]float64{{a, b}, {b, a}, {a, a}}
		query := []float64{qc, qc}
		for _, mode := range []Mode{SQ8} {
			q, err := Build(kind, mode, [][][]float64{items})
			if err != nil {
				continue // unquantizable input is a valid off outcome
			}
			var p Prepared
			q.Set.Prepare(&p, query)
			for i, v := range items {
				codes := q.Codes[0]
				if q.Set.PruneAt(&p, codes, i, bound) && exact(query, v) <= bound {
					t.Fatalf("%v/%v: pruned %v at bound %v but exact is %v", mode, kind, v, bound, exact(query, v))
				}
			}
		}
	})
}

// TestBuildRejects pins the inputs Build must refuse, which callers
// rely on to fall back to the unfiltered path.
func TestBuildRejects(t *testing.T) {
	ok := [][][]float64{{{1, 2}, {3, 4}}}
	cases := []struct {
		name   string
		kind   metric.QuantKind
		mode   Mode
		groups [][][]float64
	}{
		{"none kind", metric.QuantNone, SQ8, ok},
		{"off mode", metric.QuantL2, Off, ok},
		{"empty", metric.QuantL2, SQ8, nil},
		{"dim mismatch", metric.QuantL2, SQ8, [][][]float64{{{1, 2}, {1, 2, 3}}}},
		{"nan", metric.QuantL2, SQ8, [][][]float64{{{math.NaN(), 2}}}},
		{"inf", metric.QuantL2, SQ8, [][][]float64{{{math.Inf(1), 2}}}},
		{"unknown mode", metric.QuantL2, Mode(2), ok},
	}
	for _, c := range cases {
		if _, err := Build(c.kind, c.mode, c.groups); err == nil {
			t.Errorf("%s: Build succeeded, want error", c.name)
		}
	}
	if _, err := Build(metric.QuantL2, SQ8, [][][]float64{{{1e300, 2}}}); err != nil {
		t.Errorf("sq8 accepts large finite values: %v", err)
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range Modes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("zstd"); err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
}
