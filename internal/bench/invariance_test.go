package bench

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"mvptree/internal/build"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
)

// The tests below pin the PR's central equivalence claim across every
// structure the harness knows: attaching an early-abandoning distance
// kernel (the default — NewCounter discovers registered kernels) must
// change nothing observable. Results, per-query distance-counter
// deltas, and the per-query SearchStats breakdown are all compared
// against a twin index whose counter had the fast path detached with
// SetBounded(nil).

// canon returns an order-insensitive fingerprint of a range result set.
func canon[T any](items []T) []string {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = fmt.Sprint(it)
	}
	sort.Strings(keys)
	return keys
}

func equalStrings(a, b []string) bool {
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

// checkInvariance builds the structure twice over the same items and
// seed — once with the counter's registered bounded kernel active, once
// with it detached — and requires bit-identical behavior on a grid of
// range and kNN queries.
func checkInvariance[T any](t *testing.T, s Structure[T], items, queries []T,
	distFn metric.DistanceFunc[T], radii []float64, ks []int) {
	t.Helper()
	opts := build.Options{Seed: 5}

	fast := metric.NewCounter(distFn)
	if fast.Bounded() == nil {
		t.Fatalf("%s: registry did not supply a bounded kernel for the metric", s.Name)
	}
	idxFast, _, err := s.Build(items, fast, opts)
	if err != nil {
		t.Fatalf("%s: build (bounded): %v", s.Name, err)
	}
	exact := metric.NewCounter(distFn)
	exact.SetBounded(nil)
	idxExact, _, err := s.Build(items, exact, opts)
	if err != nil {
		t.Fatalf("%s: build (exact): %v", s.Name, err)
	}
	if f, e := fast.Count(), exact.Count(); f != e {
		t.Errorf("%s: build cost differs: %d bounded vs %d exact", s.Name, f, e)
	}

	sFast, fastHasStats := idxFast.(index.StatsIndex[T])
	sExact, _ := idxExact.(index.StatsIndex[T])

	for qi, q := range queries {
		for _, r := range radii {
			f0, e0 := fast.Count(), exact.Count()
			resF := idxFast.Range(q, r)
			fd := fast.Count() - f0
			resE := idxExact.Range(q, r)
			ed := exact.Count() - e0
			if !equalStrings(canon(resF), canon(resE)) {
				t.Errorf("%s q%d r=%v: results differ: %d bounded vs %d exact",
					s.Name, qi, r, len(resF), len(resE))
			}
			if fd != ed {
				t.Errorf("%s q%d r=%v: distance count differs: %d bounded vs %d exact",
					s.Name, qi, r, fd, ed)
			}
			if fastHasStats {
				_, stF := sFast.RangeWithStats(q, r)
				_, stE := sExact.RangeWithStats(q, r)
				if stF != stE {
					t.Errorf("%s q%d r=%v: SearchStats differ:\nbounded %+v\nexact   %+v",
						s.Name, qi, r, stF, stE)
				}
			}
		}
		for _, k := range ks {
			f0, e0 := fast.Count(), exact.Count()
			nbF := idxFast.KNN(q, k)
			fd := fast.Count() - f0
			nbE := idxExact.KNN(q, k)
			ed := exact.Count() - e0
			if len(nbF) != len(nbE) {
				t.Fatalf("%s q%d k=%d: %d neighbors bounded vs %d exact", s.Name, qi, k, len(nbF), len(nbE))
			}
			for i := range nbF {
				if nbF[i].Dist != nbE[i].Dist {
					t.Errorf("%s q%d k=%d: neighbor %d distance differs: %v bounded vs %v exact",
						s.Name, qi, k, i, nbF[i].Dist, nbE[i].Dist)
					break
				}
				if fmt.Sprint(nbF[i].Item) != fmt.Sprint(nbE[i].Item) {
					t.Errorf("%s q%d k=%d: neighbor %d differs: (%v, %v) bounded vs (%v, %v) exact",
						s.Name, qi, k, i, nbF[i].Item, nbF[i].Dist, nbE[i].Item, nbE[i].Dist)
					break
				}
			}
			if fd != ed {
				t.Errorf("%s q%d k=%d: distance count differs: %d bounded vs %d exact", s.Name, qi, k, fd, ed)
			}
			if fastHasStats {
				_, stF := sFast.KNNWithStats(q, k)
				_, stE := sExact.KNNWithStats(q, k)
				if stF != stE {
					t.Errorf("%s q%d k=%d: SearchStats differ:\nbounded %+v\nexact   %+v",
						s.Name, qi, k, stF, stE)
				}
			}
		}
	}
}

func TestBoundedKernelInvarianceVectors(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	items := dataset.UniformVectors(rng, 400, 6)
	queries := dataset.UniformQueries(rng, 6, 6)
	radii := []float64{0.05, 0.3, 0.8}
	ks := []int{1, 7}

	structures := []Structure[[]float64]{
		Linear[[]float64](),
		VPT[[]float64](2),
		VPT[[]float64](3),
		MVPT[[]float64](2, 8, 3),
		MVPT[[]float64](3, 12, 4),
		MVPTRandomSV2[[]float64](3, 8, 3),
		GMVPT[[]float64](3, 2, 8, 3),
		GNAT[[]float64](4),
		LAESA[[]float64](8),
		BallTree[[]float64](3),
	}
	for _, s := range structures {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			checkInvariance(t, s, items, queries, metric.L2, radii, ks)
		})
	}
}

func TestBoundedKernelInvarianceStrings(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 3))
	items := dataset.Words(rng, 300, dataset.WordOptions{MisspellingsPer: 2})
	queries := dataset.SampleQueries(rng, items, 5)
	radii := []float64{1, 2, 3}
	ks := []int{1, 5}

	structures := []Structure[string]{
		Linear[string](),
		BKT[string](),
		VPT[string](2),
		MVPT[string](2, 6, 2),
	}
	for _, s := range structures {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			checkInvariance(t, s, items, queries, metric.Edit, radii, ks)
		})
	}
}
