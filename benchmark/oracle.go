package main

import (
	"slices"
	"sort"
	"sync"

	"mvptree/internal/index"
)

// truth is the linear-scan answer to one pooled query, computed by the
// benchmark itself with the plain distance function during set-up.
type truth struct {
	rangeDists []float64 // ascending distances of every item within the radius
	knnDists   []float64 // the k smallest distances, ascending
}

// scanTruth answers q by brute force over items.
func scanTruth[T any](items []T, q T, dist func(a, b T) float64, r float64, k int) truth {
	all := make([]float64, len(items))
	for i, it := range items {
		all[i] = dist(q, it)
	}
	sort.Float64s(all)
	within := sort.Search(len(all), func(i int) bool { return all[i] > r })
	return truth{
		rangeDists: slices.Clone(all[:within]),
		knnDists:   slices.Clone(all[:min(k, len(all))]),
	}
}

// computeTruth answers every pooled query on both cores.
func computeTruth[T any](items, queries []T, dist func(a, b T) float64, r float64, k int) []truth {
	out := make([]truth, len(queries))
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(queries); i += procs {
				out[i] = scanTruth(items, queries[i], dist, r, k)
			}
		}()
	}
	wg.Wait()
	return out
}

// rangeOK checks a range answer by count and sorted distance list.
func rangeOK[T any](t truth, q T, got []T, dist func(a, b T) float64) bool {
	if len(got) != len(t.rangeDists) {
		return false
	}
	d := make([]float64, len(got))
	for i, it := range got {
		d[i] = dist(q, it)
	}
	sort.Float64s(d)
	return slices.Equal(d, t.rangeDists)
}

// knnOK checks a kNN answer by its distance sequence.
func knnOK[T any](t truth, got []index.Neighbor[T]) bool {
	if len(got) != len(t.knnDists) {
		return false
	}
	for i, nb := range got {
		if nb.Dist != t.knnDists[i] {
			return false
		}
	}
	return true
}
