package dynamic

import (
	"math/rand/v2"
	"sync"
	"testing"

	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// TestConcurrentInsertWhileQuerying races readers (Range, KNN, Len)
// against a writer driving Insert- and Delete-triggered rebuilds. Run
// under -race this is the regression test for the store's RWMutex; the
// assertions additionally pin reader invariants
// that hold at every intermediate state: every Range result really lies
// within the radius, and KNN returns ascending distances.
func TestConcurrentInsertWhileQuerying(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 5))
	const dim = 5
	initial := make([][]float64, 400)
	for i := range initial {
		initial[i] = randVec(rng, dim)
	}
	s, err := New(initial, metric.L2, Options{
		Tree: mvp.Options{Partitions: 2, LeafCapacity: 8, PathLength: 3, Build: mvp.Build{Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Twice the initial items and more: the cap alone rebuilds, however
	// little the readers waste before the writer is done.
	extra := make([][]float64, 1000)
	for i := range extra {
		extra[i] = randVec(rng, dim)
	}
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = randVec(rng, dim)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: inserts everything, deletes a slice of the initial items,
	// then signals the readers to wind down.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i, v := range extra {
			if err := s.Insert(v); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
			if i%10 == 0 {
				if _, err := s.Delete(initial[i%len(initial)]); err != nil {
					t.Errorf("Delete: %v", err)
					return
				}
			}
		}
	}()

	// Readers: mixed Range/KNN/diagnostics until the writer finishes.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				for _, it := range s.Range(q, 0.5) {
					if d := metric.L2(q, it); d > 0.5 {
						t.Errorf("Range(r=0.5) returned item at distance %g", d)
						return
					}
				}
				nn := s.KNN(q, 5)
				for j := 1; j < len(nn); j++ {
					if nn[j].Dist < nn[j-1].Dist {
						t.Errorf("KNN distances not ascending: %g before %g", nn[j-1].Dist, nn[j].Dist)
						return
					}
				}
				if n := s.Len(); n < 0 {
					t.Errorf("Len = %d", n)
					return
				}
				_ = s.Buffered()
				_ = s.Rebuilds()
				_ = s.DistanceCount()
			}
		}(g)
	}
	wg.Wait()

	// Quiesced: the store must have rebuilt at least once (the point of
	// the test is racing readers against rebuilds) and end consistent.
	if s.Rebuilds() < 2 {
		t.Fatalf("only %d rebuilds; the writer never exercised the rebuild path", s.Rebuilds())
	}
	wantLive := len(initial) + len(extra) - deletedCount(initial, extra)
	if s.Len() != wantLive {
		t.Fatalf("Len = %d after churn, want %d", s.Len(), wantLive)
	}
}

// deletedCount replays the writer's deletions against a model to
// compute the expected live count (delete-by-value can remove inserted
// duplicates too, but random vectors are distinct with probability 1).
func deletedCount(initial, extra [][]float64) int {
	deleted := 0
	seen := map[int]bool{}
	for i := range extra {
		if i%10 == 0 {
			id := i % len(initial)
			if !seen[id] {
				seen[id] = true
				deleted++
			}
		}
	}
	return deleted
}
