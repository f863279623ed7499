package linear

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
)

func quantVecs(seed uint64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x7777))
	items := make([][]float64, n)
	for i := range items {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = v
	}
	return items
}

// TestQuantizeEquivalence pins the pre-filter contract on the linear
// scan: byte-identical results, order, SearchStats and counter deltas
// with the filter on or off. The scan is the simplest host — every
// item is a candidate, so a pruned item must still cost one charged
// computation.
func TestQuantizeEquivalence(t *testing.T) {
	metrics := []struct {
		name string
		fn   metric.DistanceFunc[[]float64]
	}{
		{"l1", metric.L1},
		{"l2", metric.L2},
		{"linf", metric.LInf},
	}
	for _, dim := range []int{6, 30} {
		items := quantVecs(uint64(20+dim), 800, dim)
		queries := quantVecs(uint64(50+dim), 5, dim)
		queries = append(queries, items[11])
		radii := []float64{0.25, 0.8}
		if dim == 30 {
			radii = []float64{1.0, 1.9}
		}
		for _, m := range metrics {
			for _, mode := range []quant.Mode{quant.SQ8} {
				name := map[int]string{6: "dim6", 30: "dim30"}[dim] + "/" + m.name + "/" + mode.String()
				t.Run(name, func(t *testing.T) {
					distP := metric.NewCounter(m.fn)
					plain := New(items, distP)
					distQ := metric.NewCounter(m.fn)
					quantized := New(items, distQ)
					if err := quantized.EnableQuantize(mode); err != nil {
						t.Fatal(err)
					}
					if quantized.Quantized() == nil {
						t.Fatal("pre-filter did not arm on a quantizable scan")
					}
					for qi, q := range queries {
						for _, r := range radii {
							p0, q0 := distP.Count(), distQ.Count()
							resP, stP := plain.RangeWithStats(q, r)
							resQ, stQ := quantized.RangeWithStats(q, r)
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
								t.Errorf("q%d r=%v: counter delta differs: %d vs %d", qi, r, pd, qd)
							}
						}
						for _, k := range []int{1, 7} {
							p0, q0 := distP.Count(), distQ.Count()
							nbP, stP := plain.KNNWithStats(q, k)
							nbQ, stQ := quantized.KNNWithStats(q, k)
							if len(nbP) != len(nbQ) {
								t.Fatalf("q%d k=%d: %d neighbors plain vs %d quantized", qi, k, len(nbP), len(nbQ))
							}
							for i := range nbP {
								if nbP[i].Dist != nbQ[i].Dist {
									t.Errorf("q%d k=%d: neighbor %d dist differs", qi, k, i)
									break
								}
							}
							if stP != stQ {
								t.Errorf("q%d k=%d: stats differ:\nplain %+v\nquant %+v", qi, k, stP, stQ)
							}
							if pd, qd := distP.Count()-p0, distQ.Count()-q0; pd != qd {
								t.Errorf("q%d k=%d: counter delta differs: %d vs %d", qi, k, pd, qd)
							}
						}
					}
				})
			}
		}
	}
}

// TestQuantizeLifecycle pins teardown, mode errors and telemetry on
// the scan.
func TestQuantizeLifecycle(t *testing.T) {
	items := quantVecs(5, 900, 10)
	sc := New(items, metric.NewCounter(metric.L2))
	if err := sc.EnableQuantize(quant.Mode(42)); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := sc.EnableQuantize(quant.SQ8); err != nil {
		t.Fatal(err)
	}
	if s := sc.Quantized(); s == nil || s.ModeOf() != quant.SQ8 {
		t.Fatal("sq8 filter did not arm")
	}
	ob := obs.NewObserver(1)
	sc.SetObserver(ob)
	for _, q := range quantVecs(6, 10, 10) {
		sc.Range(q, 0.3)
		sc.KNN(q, 4)
	}
	if ob.Snapshot().Search.FilteredByQuantized == 0 {
		t.Error("observer saw no quantize-pruned candidates")
	}
	if err := sc.EnableQuantize(quant.Off); err != nil {
		t.Fatal(err)
	}
	if sc.Quantized() != nil {
		t.Fatal("Off did not tear the filter down")
	}

	// Angular has no quantized shape: the scan must stay unfiltered.
	ang := New(items, metric.NewCounter(metric.Angular))
	if err := ang.EnableQuantize(quant.SQ8); err != nil {
		t.Fatal(err)
	}
	if ang.Quantized() != nil {
		t.Fatal("filter armed for a metric with no quantized shape")
	}
}
