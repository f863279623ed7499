package dynamic

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// replayed is what one run of the replay schedule leaves behind: a hash
// over every answer in the order the store gave it (items, distances,
// removed counts, per-query stats), the store's counter, its rebuilds and
// the sum of the per-query stats.
type replayed struct {
	answers  string
	dists    int64
	rebuilds int
	stats    SearchStats
}

// replayGolden was recorded at the parent of PR 24, from the store that
// indexed integer IDs through a side table, and is never re-recorded for
// a change to how the store holds its items: it is what "the same trees,
// the same answers at the same cost" means across a change of the Save
// format, where stream bytes can no longer be compared. It was
// re-recorded once, in PR 33, because the rent-or-buy rule moved when the
// store rebuilds, and every tree after the first with it; the exact
// queries' answers alone (sorted items, neighbor distances, removed
// counts) hashed the same before and after, and only budgeted answers
// moved with the trees. The schedule goes through the public methods alone.
var replayGolden = map[string]replayed{
	"vectors/v=1": {answers: "daaf647eae98f2de", dists: 388031, rebuilds: 11, stats: SearchStats{NodesVisited: 94626, LeavesVisited: 58438, ShellsPruned: 12738, Candidates: 313096, FilteredByD: 84082, FilteredByPath: 61030, Computed: 167984, VantagePoints: 94586, Results: 4295, Approximated: 121, BudgetExhausted: 111}},
	"vectors/v=2": {answers: "c79180c0c9dbdc3b", dists: 382368, rebuilds: 10, stats: SearchStats{NodesVisited: 64614, LeavesVisited: 55149, ShellsPruned: 15456, Candidates: 297321, FilteredByD: 124195, FilteredByPath: 34965, Computed: 138161, VantagePoints: 116403, Results: 4291, Approximated: 126, BudgetExhausted: 117}},
	"words/v=1":   {answers: "16eb79a35b5d0985", dists: 447268, rebuilds: 10, stats: SearchStats{NodesVisited: 86965, LeavesVisited: 42171, ShellsPruned: 2603, Candidates: 329181, FilteredByD: 35810, FilteredByPath: 69461, Computed: 223910, VantagePoints: 86931, Results: 2919, Approximated: 127, BudgetExhausted: 123}},
	"words/v=2":   {answers: "bc79a8fbcbbb6020", dists: 452079, rebuilds: 9, stats: SearchStats{NodesVisited: 62629, LeavesVisited: 45724, ShellsPruned: 4313, Candidates: 307477, FilteredByD: 64563, FilteredByPath: 49901, Computed: 193013, VantagePoints: 125166, Results: 2915, Approximated: 127, BudgetExhausted: 124}},
}

// unquantized prints s with %v as the golden hashes were recorded: before
// SearchStats ended in FilteredByQuantized, which no replay arms.
func unquantized(t *testing.T, s SearchStats) string {
	if s.FilteredByQuantized != 0 {
		t.Fatalf("a replay query reports %d quantized skips", s.FilteredByQuantized)
	}
	return strings.TrimSuffix(fmt.Sprint(s), " 0}") + "}"
}

// replay runs a fixed schedule of about 2 000 operations — inserts,
// deletes of live and of absent items, range and kNN queries, a few
// farthest queries and a few under a budget or ε, which the buffer tail
// spends — against a store over the first part of pool, inserting from
// the rest.
func replay[T any](t *testing.T, pool []T, dist metric.DistanceFunc[T], opts Options, radius float64) replayed {
	const initial, ops = 600, 2000
	s, err := New(pool[:initial], dist, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2024, 24))
	live := append([]T(nil), pool[:initial]...)
	spare := pool[initial:]
	h := sha256.New()
	var sum SearchStats
	items := func(res index.Result[T]) {
		fmt.Fprintln(h, res.Items, res.Neighbors, unquantized(t, res.Stats))
		sum.Add(res.Stats)
	}
	for op := 0; op < ops; op++ {
		q := pool[rng.IntN(len(pool))]
		switch u := rng.IntN(100); {
		case u < 30 && len(spare) > 0:
			if err := s.Insert(spare[0]); err != nil {
				t.Fatal(err)
			}
			live, spare = append(live, spare[0]), spare[1:]
		case u < 45 && len(live) > 0:
			// Delete-by-value: copies of the item go with it, here and in
			// the store; the removed count says whether they agree.
			i := rng.IntN(len(live))
			n, err := s.Delete(live[i])
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(h, "deleted", n)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case u < 50:
			n, err := s.Delete(q) // as likely gone as not
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(h, "deleted", n)
		case u < 72:
			items(s.Search(index.RangeQuery(q, radius)))
		case u < 88:
			items(s.Search(index.KNNQuery(q, 1+rng.IntN(12))))
		case u < 91:
			fmt.Fprintln(h, s.RangeFarther(q, 3*radius))
		case u < 94:
			fmt.Fprintln(h, s.KFarthest(q, 1+rng.IntN(5)))
		case u < 97:
			req := index.RangeQuery(q, radius)
			req.Opts = index.SearchOptions{Budget: int64(20 + rng.IntN(200))}
			items(s.Search(req))
		default:
			req := index.KNNQuery(q, 5)
			req.Opts = index.SearchOptions{Budget: int64(20 + rng.IntN(400)), Epsilon: 0.1}
			items(s.Search(req))
		}
	}
	fmt.Fprintln(h, s.Len(), s.Buffered())
	return replayed{fmt.Sprintf("%x", h.Sum(nil)[:8]), s.DistanceCount(), s.Rebuilds(), sum}
}

// TestReplayMatchesParent replays the schedule over generated words under
// edit distance and over vectors under L2, each at one and at two vantage
// points a node.
func TestReplayMatchesParent(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(24, 1)), 1400, dataset.WordOptions{MinLen: 3, MaxLen: 9, MisspellingsPer: 3})
	rng := rand.New(rand.NewPCG(24, 2))
	vecs := make([][]float64, 1400)
	for i := range vecs {
		vecs[i] = randVec(rng, 6)
	}
	for _, v := range []int{1, 2} {
		for name, run := range map[string]func(Options) replayed{
			"words": func(o Options) replayed {
				o.Tree.Partitions, o.Tree.LeafCapacity, o.Tree.PathLength = 2, 10, 4
				return replay(t, words, metric.Edit, o, 1)
			},
			"vectors": func(o Options) replayed {
				o.Tree.Partitions, o.Tree.LeafCapacity, o.Tree.PathLength = 3, 8, 3
				return replay(t, vecs, metric.L2, o, 0.35)
			},
		} {
			name = fmt.Sprintf("%s/v=%d", name, v)
			got := run(Options{Tree: mvp.Options{Vantages: v, Build: mvp.Build{Seed: 7}}})
			if want := replayGolden[name]; got != want {
				t.Errorf("%q: %#v,\nrecorded %#v", name, got, want)
			}
		}
	}
}
