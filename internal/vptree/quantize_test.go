package vptree

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
)

func quantItems(seed uint64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x5555))
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

// TestQuantizeEquivalence pins the quantized pre-filter's contract on
// the vp-tree: byte-identical results, order, SearchStats and counter
// deltas with the filter on or off, across both representations, the
// registered metric shapes, and with the cascade layered on top (the
// two filters compose in one leaf loop).
func TestQuantizeEquivalence(t *testing.T) {
	metrics := []struct {
		name string
		fn   metric.DistanceFunc[[]float64]
	}{
		{"l1", metric.L1},
		{"l2", metric.L2},
		{"linf", metric.LInf},
	}
	for _, dim := range []int{8, 40} {
		items := quantItems(uint64(40+dim), 1100, dim)
		queries := quantItems(uint64(90+dim), 6, dim)
		queries = append(queries, items[7])
		radii := []float64{0.3, 0.9}
		if dim == 40 {
			radii = []float64{1.2, 2.2}
		}
		opts := Options{Order: 3, LeafCapacity: 25, Build: Build{Seed: 5}}
		for _, m := range metrics {
			for _, mode := range []quant.Mode{quant.SQ8} {
				for _, withCascade := range []bool{false, true} {
					name := map[int]string{8: "dim8", 40: "dim40"}[dim] + "/" + m.name + "/" + mode.String()
					if withCascade {
						name += "/cascade"
					}
					t.Run(name, func(t *testing.T) {
						distP := metric.NewCounter(m.fn)
						plain, err := New(items, distP, opts)
						if err != nil {
							t.Fatal(err)
						}
						optsQ := opts
						optsQ.Quantize = mode
						distQ := metric.NewCounter(m.fn)
						quantized, err := New(items, distQ, optsQ)
						if err != nil {
							t.Fatal(err)
						}
						if quantized.Quantized() == nil {
							t.Fatal("pre-filter did not arm on a quantizable tree")
						}
						if withCascade {
							if err := plain.EnableCascade(cascade.Options{}); err != nil {
								t.Fatal(err)
							}
							if err := quantized.EnableCascade(cascade.Options{}); err != nil {
								t.Fatal(err)
							}
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
							for _, k := range []int{1, 10} {
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
}

// TestQuantizeObserver pins that vp-tree queries feed the Observer's
// filtered_by_quantized total.
func TestQuantizeObserver(t *testing.T) {
	items := quantItems(3, 1500, 12)
	tree, err := New(items, metric.NewCounter(metric.L2),
		Options{Order: 3, LeafCapacity: 30, Build: Build{Seed: 9}, Quantize: quant.SQ8})
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.NewObserver(1)
	tree.SetObserver(ob)
	for _, q := range quantItems(4, 12, 12) {
		tree.Range(q, 0.4)
		tree.KNN(q, 5)
	}
	if got := ob.Snapshot().Search.FilteredByQuantized; got == 0 {
		t.Error("observer saw no quantize-pruned candidates")
	}
}
