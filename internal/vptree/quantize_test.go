package vptree

import (
	"reflect"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
)

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
		items := vectors(uint64(40+dim), 1100, dim)
		queries := vectors(uint64(90+dim), 6, dim)
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
						distP, distQ := metric.NewCounter(m.fn), metric.NewCounter(m.fn)
						plain, err := New(items, distP, opts)
						if err != nil {
							t.Fatal(err)
						}
						quantized, err := New(items, distQ, opts)
						if err != nil {
							t.Fatal(err)
						}
						if err := quantized.EnableQuantize(mode); err != nil || quantized.Quantized() == nil {
							t.Fatalf("pre-filter did not arm on a quantizable tree (%v)", err)
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
							for _, req := range []index.Query[[]float64]{
								index.RangeQuery(q, radii[0]), index.RangeQuery(q, radii[1]), index.KNNQuery(q, 1), index.KNNQuery(q, 10),
							} {
								p0, q0 := distP.Count(), distQ.Count()
								resP, resQ := plain.Search(req), quantized.Search(req)
								if !reflect.DeepEqual(resP, resQ) {
									t.Fatalf("q%d %+v: answers or stats differ:\nplain %+v\nquant %+v", qi, req, resP.Stats, resQ.Stats)
								}
								if pd, qd := distP.Count()-p0, distQ.Count()-q0; pd != qd {
									t.Errorf("q%d %+v: counter delta differs: %d vs %d", qi, req, pd, qd)
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
	items := vectors(3, 1500, 12)
	tree, err := New(items, metric.NewCounter(metric.L2), Options{Order: 3, LeafCapacity: 30, Build: Build{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.EnableQuantize(quant.SQ8); err != nil {
		t.Fatal(err)
	}
	ob := obs.NewObserver(1)
	tree.SetObserver(ob)
	for _, q := range vectors(4, 12, 12) {
		tree.Range(q, 0.4)
		tree.KNN(q, 5)
	}
	if got := ob.Snapshot().Search.FilteredByQuantized; got == 0 {
		t.Error("observer saw no quantize-pruned candidates")
	}
}
