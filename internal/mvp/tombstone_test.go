package mvp

import (
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
)

// tagged is an item with an id the test's bookkeeping reads; the metric
// sees the item alone.
type tagged[X any] struct {
	x  X
	id int
}

// TestSkipAnswersAreScansOfTheKeptItems: a tree that has tombstoned every
// item at distance zero from every third item (Remove) answers every
// query kind — exact, ε and budgeted range and kNN, alone and in
// SearchBatch groups, RangeFarther, KFarthest and Items — as a scan of
// the items it keeps would, never measures a tombstoned leaf item, and
// reports as many distances as its counter moved. Each Remove measures
// what the range query at r = 0 measures and removes what it would
// return; a second Remove of the same point removes nothing, at that
// query's cost again. Over vectors and over words, whose filter rows a
// uint32 holds in nibbles, at v = 2, v = 1 and on the classic vp-tree.
func TestSkipAnswersAreScansOfTheKeptItems(t *testing.T) {
	opts := Options{Partitions: 3, LeafCapacity: 12, PathLength: 4, Build: Build{Seed: 9}}
	t.Run("vectors", func(t *testing.T) {
		items := uniformItems(41, 900, 5)
		queries := append(items[:4:4], uniformItems(42, 6, 5)...)
		eachV(t, opts, func(t *testing.T, opts Options) {
			checkSkip(t, items, metric.L2, queries, []float64{0, 0.2, 0.45}, opts, false)
		})
	})
	t.Run("words", func(t *testing.T) {
		words := dataset.Words(rand.New(rand.NewPCG(41, 2)), 900, dataset.WordOptions{MinLen: 3, MaxLen: 9, MisspellingsPer: 3})
		queries := append(words[:4:4], dataset.Words(rand.New(rand.NewPCG(41, 3)), 6, dataset.WordOptions{})...)
		eachV(t, opts, func(t *testing.T, opts Options) {
			checkSkip(t, words, metric.Edit, queries, []float64{0, 1, 2}, opts, true)
		})
	})
}

// checkSkip is TestSkipAnswersAreScansOfTheKeptItems over one item type;
// nibbles says the tree's filter rows must be held in nibbles.
func checkSkip[X any](t *testing.T, xs []X, dist metric.DistanceFunc[X], queries []X, radii []float64, opts Options, nibbles bool) {
	items := make([]tagged[X], len(xs))
	for i, x := range xs {
		items[i] = tagged[X]{x, i}
	}
	// dead is the tombstones by id, as a scan finds them.
	dead := make([]bool, len(items))
	skip := func(e tagged[X]) bool { return dead[e.id] }
	// The counting kernel: once the tree is built, a tombstoned leaf item
	// must never be an argument.
	leaf := make([]bool, len(items))
	watch, seen := false, 0
	counter := metric.NewCounter(func(a, b tagged[X]) float64 {
		for _, e := range []tagged[X]{a, b} {
			if watch && e.id >= 0 && leaf[e.id] && skip(e) {
				seen++
			}
		}
		return dist(a.x, b.x)
	})
	tree, err := New(items, counter, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nibbles && tree.nibbles == nil && tree.Shape().LeafItems > 0 {
		t.Fatal("the word tree's rows are not in nibbles")
	}
	for _, e := range tree.items.first(tree.leafItems) {
		leaf[e.id] = true
	}
	watch = true

	// measure is the distances f measures, checked against the
	// Distances() f reports unless that is negative.
	measure := func(f func() int64) int64 {
		before := counter.Count()
		reported := f()
		if d := counter.Count() - before; reported >= 0 && reported != d {
			t.Fatalf("Distances() %d, counter delta %d", reported, d)
		}
		return counter.Count() - before
	}
	zero := func(q tagged[X]) (res index.Result[tagged[X]], cost int64) {
		cost = measure(func() int64 {
			res = tree.Search(index.RangeQuery(q, 0))
			return res.Stats.Distances()
		})
		return res, cost
	}
	for i := 0; i < len(items); i += 3 {
		q := tagged[X]{xs[i], -1}
		var want []int
		for _, e := range items {
			if !dead[e.id] && dist(q.x, e.x) == 0 {
				want = append(want, e.id)
			}
		}
		res, cost := zero(q)
		if got := ids(res.Items); !slices.Equal(got, want) {
			t.Fatalf("item %d: the range query at 0 found %v, the scan %v", i, got, want)
		}
		var removed int
		if paid := measure(func() int64 { removed = Remove(tree, q); return -1 }); paid != cost || removed != len(want) {
			t.Fatalf("item %d: Remove took %d items at %d distances, the range query at 0 finds %d at %d", i, removed, paid, len(want), cost)
		}
		for _, id := range want {
			dead[id] = true
		}
		if i%9 != 0 {
			continue
		}
		_, cost = zero(q)
		if paid := measure(func() int64 { removed = Remove(tree, q); return -1 }); paid != cost || removed != 0 {
			t.Fatalf("item %d: Remove again took %d items at %d distances, the range query at 0 costs %d", i, removed, paid, cost)
		}
	}
	if err := tree.Save(io.Discard, func(tagged[X]) ([]byte, error) { return nil, nil }); err == nil {
		t.Fatal("Save wrote a tree that holds tombstones")
	}
	var kept []tagged[X]
	for _, e := range items {
		if !skip(e) {
			kept = append(kept, e)
		}
	}
	if got := ids(tree.Items()); !slices.Equal(got, ids(kept)) {
		t.Fatalf("Items holds %d items, %d kept", len(got), len(kept))
	}

	// within is the ids of the kept items whose distance from q keep
	// accepts, sorted; nearest the k smallest distances of kept items.
	within := func(q tagged[X], keep func(float64) bool) []int {
		var out []tagged[X]
		for _, e := range kept {
			if keep(dist(q.x, e.x)) {
				out = append(out, e)
			}
		}
		return ids(out)
	}
	nearest := func(q tagged[X], k int, far bool) []float64 {
		ds := make([]float64, len(kept))
		for i, e := range kept {
			ds[i] = dist(q.x, e.x)
		}
		slices.Sort(ds)
		if far {
			slices.Reverse(ds)
		}
		return ds[:min(k, len(ds))]
	}
	search := func(req index.Query[tagged[X]]) index.Result[tagged[X]] {
		before := counter.Count()
		res := tree.Search(req)
		if d := counter.Count() - before; res.Stats.Distances() != d {
			t.Fatalf("%+v: Distances() %d, counter delta %d", req.Opts, res.Stats.Distances(), d)
		}
		for _, e := range res.Items {
			if skip(e) {
				t.Fatalf("%+v: a tombstoned item in the answer", req.Opts)
			}
		}
		return res
	}
	// checkNeighbors holds nbs to kept items at their true distances, in
	// order, each within factor of the scan's want.
	checkNeighbors := func(what string, q tagged[X], nbs []index.Neighbor[tagged[X]], want []float64, factor float64, far bool) {
		for i, nb := range nbs {
			if skip(nb.Item) || dist(q.x, nb.Item.x) != nb.Dist {
				t.Fatalf("%s: neighbor %d is item %d at %g", what, i, nb.Item.id, nb.Dist)
			}
			if i > 0 && (far && nb.Dist > nbs[i-1].Dist || !far && nb.Dist < nbs[i-1].Dist) {
				t.Fatalf("%s: neighbors out of order", what)
			}
			if want != nil && (far && nb.Dist != want[i] || !far && nb.Dist > factor*want[i]) {
				t.Fatalf("%s: neighbor %d at %g, the scan's at %g", what, i, nb.Dist, want[i])
			}
		}
	}

	var batch []index.Query[tagged[X]]
	for qi, x := range queries {
		q := tagged[X]{x, -1}
		for _, r := range radii {
			what := fmt.Sprintf("query %d, r = %g", qi, r)
			req := index.RangeQuery(q, r)
			batch = append(batch, req)
			if got, want := ids(search(req).Items), within(q, func(d float64) bool { return d <= r }); !slices.Equal(got, want) {
				t.Fatalf("%s: Range found %v, the scan %v", what, got, want)
			}
			req.Opts.Epsilon = 0.5
			got := ids(search(req).Items)
			if inner, outer := within(q, func(d float64) bool { return d <= r/1.5 }), within(q, func(d float64) bool { return d <= r }); !subset(inner, got) || !subset(got, outer) {
				t.Fatalf("%s: ε Range found %v, the scan %v within r/(1+ε) and %v within r", what, got, inner, outer)
			}
			req.Opts = index.SearchOptions{Budget: 40}
			if got, outer := ids(search(req).Items), within(q, func(d float64) bool { return d <= r }); !subset(got, outer) {
				t.Fatalf("%s: budgeted Range found %v, the scan %v", what, got, outer)
			}
			far := r * 4
			if got, want := ids(tree.RangeFarther(q, far)), within(q, func(d float64) bool { return d >= far }); !slices.Equal(got, want) {
				t.Fatalf("%s: RangeFarther(%g) found %d items, the scan %d", what, far, len(got), len(want))
			}
		}
		for _, k := range []int{1, 5, 40} {
			what := fmt.Sprintf("query %d, k = %d", qi, k)
			want := nearest(q, k, false)
			req := index.KNNQuery(q, k)
			if nbs := search(req).Neighbors; len(nbs) != len(want) {
				t.Fatalf("%s: kNN found %d, the scan %d", what, len(nbs), len(want))
			} else {
				checkNeighbors(what, q, nbs, want, 1, false)
			}
			req.Opts.Epsilon = 0.5
			checkNeighbors(what+", ε", q, search(req).Neighbors, want, 1.5, false)
			req.Opts = index.SearchOptions{Budget: 40}
			checkNeighbors(what+", budget", q, search(req).Neighbors, nil, 1, false)
			want = nearest(q, k, true)
			if nbs := tree.KFarthest(q, k); len(nbs) != len(want) {
				t.Fatalf("%s: KFarthest found %d, the scan %d", what, len(nbs), len(want))
			} else {
				checkNeighbors(what+", farthest", q, nbs, want, 1, true)
			}
		}
	}
	results := make([]index.Result[tagged[X]], len(batch))
	before := counter.Count()
	tree.SearchBatch(batch, results)
	var spent int64
	for i, res := range results {
		spent += res.Stats.Distances()
		if got, want := ids(res.Items), within(batch[i].Point, func(d float64) bool { return d <= batch[i].Radius }); !slices.Equal(got, want) {
			t.Fatalf("SearchBatch member %d found %v, the scan %v", i, got, want)
		}
	}
	if d := counter.Count() - before; spent != d {
		t.Fatalf("SearchBatch: Σ Distances() %d, counter delta %d", spent, d)
	}
	if seen > 0 {
		t.Errorf("the kernel measured a tombstoned leaf item %d times", seen)
	}
}

// ids returns the ids of items, sorted.
func ids[X any](items []tagged[X]) []int {
	out := make([]int, len(items))
	for i, e := range items {
		out[i] = e.id
	}
	slices.Sort(out)
	return out
}

// subset reports whether every element of a, sorted, is in b, sorted.
func subset(a, b []int) bool {
	for _, x := range a {
		if _, ok := slices.BinarySearch(b, x); !ok {
			return false
		}
	}
	return true
}
