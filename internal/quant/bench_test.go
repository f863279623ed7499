package quant

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
)

func benchData(dim, n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewPCG(1, 2))
	items := make([][]float64, n)
	for i := range items {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = v
	}
	q := make([]float64, dim)
	for j := range q {
		q[j] = rng.Float64()
	}
	return items, q
}

func BenchmarkPrepareSQ8(b *testing.B) {
	for _, dim := range []int{20, 50} {
		items, q := benchData(dim, 256)
		qz, err := Build(metric.QuantL2, SQ8, [][][]float64{items})
		if err != nil {
			b.Fatal(err)
		}
		var p Prepared
		b.Run(map[int]string{20: "dim20", 50: "dim50"}[dim], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qz.Set.Prepare(&p, q)
			}
		})
	}
}

func BenchmarkPruneSQ8(b *testing.B) {
	items, q := benchData(20, 1024)
	qz, err := Build(metric.QuantL2, SQ8, [][][]float64{items})
	if err != nil {
		b.Fatal(err)
	}
	var p Prepared
	qz.Set.Prepare(&p, q)
	codes := qz.Codes[0]
	b.ResetTimer()
	pruned := 0
	for i := 0; i < b.N; i++ {
		if qz.Set.PruneAt(&p, codes, i&1023, 0.5) {
			pruned++
		}
	}
	_ = pruned
}

func BenchmarkExactL2UpTo(b *testing.B) {
	items, q := benchData(20, 1024)
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += metric.L2UpTo(q, items[i&1023], 0.5)
	}
	_ = acc
}
