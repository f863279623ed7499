package metric_test

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/metric"
)

// BenchmarkEditRow times what construction pays per distance on the
// words-edit corpus: one vantage word against 4 096 items picked in
// random order, as a node's row. "pairs" runs Edit once per pair, as the
// build did before it had a row kernel; "row" runs EditRow, which builds
// the vantage word's match table once for the row. Both report
// ns/distance.
func BenchmarkEditRow(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewPCG(42, 42))
	words := dataset.Words(rng, n+1, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	v, items := words[n/2], append(words[:n/2:n/2], words[n/2+1:]...)
	ids := make([]int32, n)
	for i, p := range rng.Perm(n) {
		ids[i] = int32(p)
	}
	out := make([]float64, n)
	for _, k := range []struct {
		name string
		row  metric.RowDistanceFunc[string]
	}{
		{"pairs", func(p string, items []string, ids []int32, out []float64) {
			for i, id := range ids {
				out[i] = metric.Edit(items[id], p)
			}
		}},
		{"row", metric.EditRow},
	} {
		b.Run(k.name, func(b *testing.B) {
			for range b.N {
				k.row(v, items, ids, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/distance")
		})
	}
}
