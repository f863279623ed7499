package dynamic

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// replayed is what one run of the replay schedule leaves behind: a hash
// over every answer in the order the store gave it (items, distances,
// removed counts, per-query stats), a hash over the exact answers alone
// as sets (exact), the store's counter, its rebuilds and the sum of the
// per-query stats.
type replayed struct {
	answers  string
	exact    string
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
// moved with the trees. exact, that hash of the exact answers, was
// recorded while the tree still measured its tombstones and the queries
// every buffered item, and is never re-recorded: no rule of when to
// rebuild or what to measure may move an exact answer. The rest was
// re-recorded a second time when the tree began skipping its tombstones,
// the buffer filtering by pivot bounds and a rebuild taking the tree's
// items in node order: the store measured less and rebuilt at other
// writes, and every tree after the first moved; exact held. The schedule
// goes through the public methods alone.
var replayGolden = map[string]replayed{
	"vectors/v=1": {answers: "d7f048c92e6c4eb5", exact: "c2f73ebfbc0c543e", dists: 300970, rebuilds: 8, stats: SearchStats{NodesVisited: 79233, LeavesVisited: 47919, ShellsPruned: 13676, Candidates: 280922, FilteredByD: 96609, FilteredByPath: 59236, Computed: 125077, VantagePoints: 79973, Results: 4279, Approximated: 125, BudgetExhausted: 95}},
	"vectors/v=2": {answers: "a9fb8b362a83d6a5", exact: "c2f73ebfbc0c543e", dists: 290195, rebuilds: 7, stats: SearchStats{NodesVisited: 50779, LeavesVisited: 43001, ShellsPruned: 15146, Candidates: 275510, FilteredByD: 146630, FilteredByPath: 33766, Computed: 95114, VantagePoints: 96970, Results: 4278, Approximated: 123, BudgetExhausted: 87}},
	"words/v=1":   {answers: "02989624b34b83d8", exact: "8623e1b42739fc5d", dists: 369059, rebuilds: 6, stats: SearchStats{NodesVisited: 79602, LeavesVisited: 38347, ShellsPruned: 2670, Candidates: 311419, FilteredByD: 53039, FilteredByPath: 70991, Computed: 187389, VantagePoints: 80307, Results: 2925, Approximated: 126, BudgetExhausted: 122}},
	"words/v=2":   {answers: "c78d2e4397aa372a", exact: "8623e1b42739fc5d", dists: 395530, rebuilds: 6, stats: SearchStats{NodesVisited: 59750, LeavesVisited: 43262, ShellsPruned: 5189, Candidates: 305484, FilteredByD: 87559, FilteredByPath: 50548, Computed: 167377, VantagePoints: 120925, Results: 2917, Approximated: 123, BudgetExhausted: 120}},
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
	h, ex := sha256.New(), sha256.New()
	var sum SearchStats
	items := func(res index.Result[T]) {
		fmt.Fprintln(h, res.Items, res.Neighbors, unquantized(t, res.Stats))
		sum.Add(res.Stats)
	}
	// exact hashes an exact answer as what no rebuild may move: its items
	// sorted, or its neighbors' distances.
	exact := func(found []T, nbs []index.Neighbor[T]) {
		sorted := make([]string, len(found))
		for i, it := range found {
			sorted[i] = fmt.Sprint(it)
		}
		slices.Sort(sorted)
		dists := make([]float64, len(nbs))
		for i, nb := range nbs {
			dists[i] = nb.Dist
		}
		fmt.Fprintln(ex, sorted, dists)
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
			fmt.Fprintln(ex, "deleted", n)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case u < 50:
			n, err := s.Delete(q) // as likely gone as not
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(h, "deleted", n)
			fmt.Fprintln(ex, "deleted", n)
		case u < 72:
			res := s.Search(index.RangeQuery(q, radius))
			items(res)
			exact(res.Items, nil)
		case u < 88:
			res := s.Search(index.KNNQuery(q, 1+rng.IntN(12)))
			items(res)
			exact(nil, res.Neighbors)
		case u < 91:
			far := s.RangeFarther(q, 3*radius)
			fmt.Fprintln(h, far)
			exact(far, nil)
		case u < 94:
			far := s.KFarthest(q, 1+rng.IntN(5))
			fmt.Fprintln(h, far)
			exact(nil, far)
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
	fmt.Fprintln(ex, s.Len())
	return replayed{fmt.Sprintf("%x", h.Sum(nil)[:8]), fmt.Sprintf("%x", ex.Sum(nil)[:8]), s.DistanceCount(), s.Rebuilds(), sum}
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
