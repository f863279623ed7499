package dynamic

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// BenchmarkDynamicChurn is the mix of the benchmark harness's
// dynamic-churn workload inside the package: a store over 5 000 distinct
// generated words under edit distance on the paper's tree (m 3, k 80,
// p 5), then b.N operations, 40 % range at r = 1 and 10 % kNN at k = 10
// from a pool of 256 queries, 25 % inserts of held-out words and 25 %
// deletes of live ones. Beside ns/op it reports the distances a query,
// writes and rebuilds included as the workload counts them, and the
// rebuilds per 1 000 operations.
func BenchmarkDynamicChurn(b *testing.B) {
	rng := rand.New(rand.NewPCG(33, 33))
	seen := make(map[string]bool)
	var words []string
	for _, w := range dataset.Words(rng, 15000, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3}) {
		if !seen[w] && len(words) < 7500 {
			seen[w] = true
			words = append(words, w)
		}
	}
	s, err := New(words[:5000], metric.Edit, Options{Tree: mvp.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5}})
	if err != nil {
		b.Fatal(err)
	}
	queries := dataset.SampleQueries(rng, words[:5000], 256)
	live, spare := slices.Clone(words[:5000]), slices.Clone(words[5000:])
	dists, rebuilds, reads := s.DistanceCount(), s.Rebuilds(), 0
	b.ResetTimer()
	for range b.N {
		switch u := rng.Float64(); {
		case u < 0.40:
			s.Range(queries[rng.IntN(len(queries))], 1)
			reads++
		case u < 0.50:
			s.KNN(queries[rng.IntN(len(queries))], 10)
			reads++
		case u < 0.75 && len(spare) > 0 || len(live) == 0:
			if err := s.Insert(spare[0]); err != nil {
				b.Fatal(err)
			}
			live, spare = append(live, spare[0]), spare[1:]
		default:
			i := rng.IntN(len(live))
			if n, err := s.Delete(live[i]); err != nil || n != 1 {
				b.Fatalf("Delete(%q) removed %d (%v)", live[i], n, err)
			}
			spare = append(spare, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.DistanceCount()-dists)/float64(max(reads, 1)), "dists/query")
	b.ReportMetric(float64(s.Rebuilds()-rebuilds)*1000/float64(b.N), "rebuilds/1kop")
}
