package mvp

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
	"mvptree/internal/testutil"
)

func clusteredItems(seed uint64, n, dim, clusters int) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	centers := make([][]float64, clusters)
	for c := range centers {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64() * 10
		}
		centers[c] = v
	}
	items := make([][]float64, n)
	for i := range items {
		c := centers[i%clusters]
		v := make([]float64, dim)
		for j := range v {
			v[j] = c[j] + rng.NormFloat64()*0.1
		}
		items[i] = v
	}
	return items
}

// TestQuantizeEquivalence pins the tentpole contract on the mvp-tree:
// with the quantized pre-filter armed (either mode, any registered
// metric shape, across workload shapes), every query returns
// byte-identical results in identical order with identical counter
// deltas and SearchStats as the unfiltered tree, FilteredByQuantized —
// the one field the filter moves — aside; that one is positive overall.
func TestQuantizeEquivalence(t *testing.T) {
	workloads := []struct {
		name  string
		items [][]float64
		radii []float64
	}{
		{"uniform", uniformItems(61, 1200, 8), []float64{0.2, 0.6, 1.1}},
		{"clustered", clusteredItems(62, 1200, 8, 7), []float64{0.15, 0.5, 3}},
		{"highdim", uniformItems(63, 900, 40), []float64{0.8, 1.6, 2.4}},
	}
	metrics := []struct {
		name string
		fn   metric.DistanceFunc[[]float64]
	}{
		{"l1", metric.L1},
		{"l2", metric.L2},
		{"linf", metric.LInf},
	}
	opts := Options{Partitions: 3, LeafCapacity: 20, PathLength: 4, Build: Build{Seed: 9}}
	for _, w := range workloads {
		for _, m := range metrics {
			for _, mode := range []quant.Mode{quant.SQ8} {
				t.Run(w.name+"/"+m.name+"/"+mode.String(), func(t *testing.T) {
					for _, v := range []int{2, 1} {
						opts := opts
						opts.Vantages = v
						distP := metric.NewCounter(m.fn)
						plain, err := New(w.items, distP, opts)
						if err != nil {
							t.Fatal(err)
						}
						distQ := metric.NewCounter(m.fn)
						quantized, err := New(w.items, distQ, opts)
						if err != nil {
							t.Fatal(err)
						}
						if err := quantized.EnableQuantize(mode); err != nil {
							t.Fatal(err)
						}
						if quantized.Quantized() == nil {
							t.Fatal("pre-filter did not arm on a quantizable tree")
						}
						queries := uniformItems(64, 6, len(w.items[0]))
						queries = append(queries, w.items[3], w.items[77])
						skipped := 0
						// unq clears the one field the filter moves.
						unq := func(s SearchStats) SearchStats {
							skipped += s.FilteredByQuantized
							s.FilteredByQuantized = 0
							return s
						}
						for qi, q := range queries {
							for _, r := range w.radii {
								p0, q0 := distP.Count(), distQ.Count()
								resP, stP := plain.RangeWithStats(q, r)
								resQ, stQ := quantized.RangeWithStats(q, r)
								stQ = unq(stQ)
								if len(resP) != len(resQ) {
									t.Fatalf("q%d r=%v: %d results plain vs %d quantized", qi, r, len(resP), len(resQ))
								}
								for i := range resP {
									for j := range resP[i] {
										if resP[i][j] != resQ[i][j] {
											t.Fatalf("q%d r=%v: result %d differs", qi, r, i)
										}
									}
								}
								if stP != stQ {
									t.Errorf("q%d r=%v: stats differ:\nplain %+v\nquant %+v", qi, r, stP, stQ)
								}
								if pd, qd := distP.Count()-p0, distQ.Count()-q0; pd != qd {
									t.Errorf("q%d r=%v: counter delta differs: %d plain vs %d quantized", qi, r, pd, qd)
								}
							}
							for _, k := range []int{1, 10} {
								p0, q0 := distP.Count(), distQ.Count()
								nbP, stP := plain.KNNWithStats(q, k)
								nbQ, stQ := quantized.KNNWithStats(q, k)
								stQ = unq(stQ)
								if len(nbP) != len(nbQ) {
									t.Fatalf("q%d k=%d: %d neighbors plain vs %d quantized", qi, k, len(nbP), len(nbQ))
								}
								for i := range nbP {
									if nbP[i].Dist != nbQ[i].Dist {
										t.Errorf("q%d k=%d: neighbor %d dist %v plain vs %v quantized", qi, k, i, nbP[i].Dist, nbQ[i].Dist)
										break
									}
								}
								if stP != stQ {
									t.Errorf("q%d k=%d: stats differ:\nplain %+v\nquant %+v", qi, k, stP, stQ)
								}
								if pd, qd := distP.Count()-p0, distQ.Count()-q0; pd != qd {
									t.Errorf("q%d k=%d: counter delta differs: %d plain vs %d quantized", qi, k, pd, qd)
								}
							}
						}
						if skipped == 0 {
							t.Errorf("v=%d: the armed tree reports no FilteredByQuantized", v)
						}
					}
				})
			}
		}
	}
}

// TestQuantizeTelemetry pins the observability of the pre-filter: the
// skipped evaluations are SearchStats.FilteredByQuantized, so the
// Observer's filtered_by_quantized total is their sum over the queries.
func TestQuantizeTelemetry(t *testing.T) {
	items := uniformItems(71, 1500, 12)
	tree, err := New(items, metric.NewCounter(metric.L2),
		Options{Partitions: 3, LeafCapacity: 40, PathLength: 4, Build: Build{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.EnableQuantize(quant.SQ8); err != nil {
		t.Fatal(err)
	}
	ob := obs.NewObserver(1)
	tree.SetObserver(ob)
	var sum int64
	for _, q := range uniformItems(72, 16, 12) {
		_, s := tree.RangeWithStats(q, 0.4)
		sum += int64(s.FilteredByQuantized)
		_, s = tree.KNNWithStats(q, 5)
		sum += int64(s.FilteredByQuantized)
	}
	if sum == 0 {
		t.Error("no query reported FilteredByQuantized")
	}
	if got := ob.Snapshot().Search.FilteredByQuantized; got != sum {
		t.Errorf("observer filtered_by_quantized = %d, per-query stats sum to %d", got, sum)
	}
}

// TestQuantizeZeroAlloc pins that arming the pre-filter keeps the
// steady-state query paths allocation-free: the per-query Prepare
// reuses the pooled scratch table and the query-vector assertion does
// not box.
func TestQuantizeZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	items := uniformItems(81, 2000, 8)
	for _, v := range []int{2, 1} {
		tree, err := New(items, metric.NewCounter(metric.L2),
			Options{Vantages: v, Partitions: 3, LeafCapacity: 40, PathLength: 4, Build: Build{Seed: 7}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.EnableQuantize(quant.SQ8); err != nil {
			t.Fatal(err)
		}
		far := []float64{100, 100, 100, 100, 100, 100, 100, 100}
		near := items[17]
		tree.Range(far, 0.5)
		tree.KNN(near, 10)
		if allocs := testing.AllocsPerRun(200, func() { tree.Range(far, 0.5) }); allocs != 0 {
			t.Errorf("v=%d: quantized empty-result Range allocated %.1f times per query, want 0", v, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() { tree.KNN(near, 10) }); allocs > 1 {
			t.Errorf("v=%d: quantized KNN allocated %.1f times per query, want <= 1", v, allocs)
		}
	}
}

// TestQuantizeLifecycle pins mode switching: Off tears the filter
// down, an unknown mode is refused, and an unquantizable metric leaves
// the tree unfiltered silently.
func TestQuantizeLifecycle(t *testing.T) {
	items := uniformItems(91, 600, 6)
	tree, err := New(items, metric.NewCounter(metric.L2),
		Options{Partitions: 2, LeafCapacity: 15, Build: Build{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Quantized() != nil {
		t.Fatal("filter armed without the option")
	}
	if err := tree.EnableQuantize(quant.SQ8); err != nil {
		t.Fatal(err)
	}
	if s := tree.Quantized(); s == nil || s.ModeOf() != quant.SQ8 {
		t.Fatalf("expected armed sq8 filter, got %+v", tree.Quantized())
	}
	if err := tree.EnableQuantize(quant.Off); err != nil {
		t.Fatal(err)
	}
	if tree.Quantized() != nil {
		t.Fatal("Off did not tear the filter down")
	}
	if err := tree.EnableQuantize(quant.Mode(99)); err == nil {
		t.Fatal("unknown mode accepted")
	}

	// Angular has no quantized shape: the tree must stay unfiltered.
	ang, err := New(items, metric.NewCounter(metric.Angular),
		Options{Partitions: 2, LeafCapacity: 15, Build: Build{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ang.EnableQuantize(quant.SQ8); err != nil {
		t.Fatal(err)
	}
	if ang.Quantized() != nil {
		t.Fatal("filter armed for a metric with no quantized shape")
	}
}
