package metric

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestBlockKernelsBitIdenticalToUpTo pins L2Block, which the benchmark
// harness times, to what it claims to be: every out[j] — abandoned or
// not — is bit-identical to L2UpTo for the same (query, point, bound)
// triple.
func TestBlockKernelsBitIdenticalToUpTo(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 20, 33}
	blockSizes := []int{1, 2, 5, 63, 64, 65, 130}
	for _, dim := range dims {
		for _, nq := range blockSizes {
			p := randVec(rng, dim)
			qs := make([][]float64, nq)
			for j := range qs {
				qs[j] = randVec(rng, dim)
			}
			// Reference distances to craft adversarial bounds.
			ref := make([]float64, nq)
			inf := math.Inf(1)
			for j := range qs {
				ref[j] = L2UpTo(qs[j], p, inf)
			}
			bounds := make([]float64, nq)
			out := make([]float64, nq)

			// nil bounds: exact everywhere.
			L2Block(p, qs, nil, out)
			for j := range qs {
				if out[j] != ref[j] {
					t.Fatalf("dim=%d B=%d nil bounds: out[%d]=%v want %v", dim, nq, j, out[j], ref[j])
				}
			}

			// A spread of per-query bounds around each true distance,
			// cycling through degenerate and near-threshold values so
			// some queries in every block abandon and others survive.
			for trial := 0; trial < 4; trial++ {
				for j := range qs {
					sched := boundsFor(ref[j])
					bounds[j] = sched[(j+trial*3)%len(sched)]
				}
				L2Block(p, qs, bounds, out)
				for j := range qs {
					want := L2UpTo(qs[j], p, bounds[j])
					if out[j] != want && !(math.IsNaN(out[j]) && math.IsNaN(want)) {
						t.Fatalf("dim=%d B=%d trial=%d: out[%d]=%v want %v (bound %v)",
							dim, nq, trial, j, out[j], want, bounds[j])
					}
				}
			}
		}
	}
}

// TestBlockKernelLengthChecks pins the panic behaviour on malformed
// slice shapes.
func TestBlockKernelLengthChecks(t *testing.T) {
	p := []float64{1, 2}
	qs := [][]float64{{3, 4}, {5, 6}}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("short out", func() { L2Block(p, qs, nil, make([]float64, 1)) })
	mustPanic("short bounds", func() { L2Block(p, qs, make([]float64, 1), make([]float64, 2)) })
	mustPanic("dim mismatch", func() { L2Block(p, [][]float64{{1, 2, 3}}, nil, make([]float64, 1)) })
}
