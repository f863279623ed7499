package mvptree_test

// Invariance and semantics of the unified Search entry point across
// every structure: zero-valued SearchOptions must reproduce the exact
// query paths byte for byte — same results in the same order, same
// SearchStats, same distance-counter delta — on vector and edit
// workloads alike, and the approximation knobs must honor their
// contracts (superset-free ε-range, (1+ε)-bounded kNN, budget
// accounting that never overspends).

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mvptree"
	"mvptree/internal/shard"
)

type (
	vecOpt      = mvptree.IndexOption[[]float64]
	vecSearcher = mvptree.Searcher[[]float64]
)

// vecBuilders is one constructor per vector-capable structure, each
// handing its options to the facade: the tests below build with none
// (vecSearchers), with the accelerators on the structures that have them
// (accelerated) and with options a structure must refuse
// (TestCapabilitiesTable).
func vecBuilders(items [][]float64) map[string]func(...vecOpt) (vecSearcher, error) {
	bo := mvptree.BuildOptions{Seed: 5}
	return map[string]func(...vecOpt) (vecSearcher, error){
		"mvp": func(o ...vecOpt) (vecSearcher, error) {
			return mvptree.New(items, mvptree.L2, mvptree.Options{Partitions: 3, LeafCapacity: 20, PathLength: 4, Build: bo}, o...)
		},
		"vp": func(o ...vecOpt) (vecSearcher, error) {
			return mvptree.NewVP(items, mvptree.L2, mvptree.VPOptions{Order: 3, Build: bo}, o...)
		},
		"gnat": func(o ...vecOpt) (vecSearcher, error) {
			return mvptree.NewGNAT(items, mvptree.L2, mvptree.GNATOptions{Build: bo}, o...)
		},
		"ball": func(o ...vecOpt) (vecSearcher, error) {
			return mvptree.NewBall(items, mvptree.L2, mvptree.BallOptions{Build: bo}, o...)
		},
		"pivot": func(o ...vecOpt) (vecSearcher, error) {
			return mvptree.NewPivotTable(items, mvptree.L2, mvptree.PivotOptions{Pivots: 8, Build: bo}, o...)
		},
		"general": func(o ...vecOpt) (vecSearcher, error) {
			return mvptree.NewGeneral(items, mvptree.L2, mvptree.GeneralOptions{Vantages: 3, Partitions: 2, Build: bo}, o...)
		},
		"linear": func(o ...vecOpt) (vecSearcher, error) {
			return mvptree.NewLinear(items, mvptree.L2, o...), nil
		},
		"dynamic": func(o ...vecOpt) (vecSearcher, error) {
			return mvptree.NewDynamic(items, mvptree.L2, mvptree.DynamicOptions{
				Tree: mvptree.Options{Partitions: 2, LeafCapacity: 20, PathLength: 3, Build: bo},
			}, o...)
		},
	}
}

// accelerated names the structures that take WithCascade and
// WithQuantized (the linear scan arms the second and ignores the
// first); every other constructor refuses both.
var accelerated = []string{"mvp", "vp", "linear"}

// buildVec builds the named structures (all of them when names is nil).
func buildVec(t *testing.T, items [][]float64, names []string, ixOpts ...vecOpt) map[string]vecSearcher {
	t.Helper()
	out := map[string]vecSearcher{}
	for name, build := range vecBuilders(items) {
		if names != nil && !slices.Contains(names, name) {
			continue
		}
		idx, err := build(ixOpts...)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out[name] = idx
	}
	return out
}

// vecSearchers builds each vector-capable structure over items.
func vecSearchers(t *testing.T, items [][]float64) map[string]vecSearcher {
	t.Helper()
	return buildVec(t, items, nil)
}

// editSearchers builds each structure over a word set under edit
// distance — including the BK-tree, which only exists here because it
// needs an integer-valued metric.
func editSearchers(t *testing.T, words []string) map[string]mvptree.Searcher[string] {
	t.Helper()
	out := map[string]mvptree.Searcher[string]{}
	must := func(name string, idx mvptree.Searcher[string], err error) {
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out[name] = idx
	}
	bo := mvptree.BuildOptions{Seed: 5}
	tree, err := mvptree.New(words, mvptree.EditDistance, mvptree.Options{Partitions: 2, LeafCapacity: 10, PathLength: 2, Build: bo})
	must("mvp", tree, err)
	vp, err := mvptree.NewVP(words, mvptree.EditDistance, mvptree.VPOptions{Order: 2, Build: bo})
	must("vp", vp, err)
	gn, err := mvptree.NewGNAT(words, mvptree.EditDistance, mvptree.GNATOptions{Build: bo})
	must("gnat", gn, err)
	ball, err := mvptree.NewBall(words, mvptree.EditDistance, mvptree.BallOptions{Build: bo})
	must("ball", ball, err)
	pv, err := mvptree.NewPivotTable(words, mvptree.EditDistance, mvptree.PivotOptions{Pivots: 6, Build: bo})
	must("pivot", pv, err)
	gen, err := mvptree.NewGeneral(words, mvptree.EditDistance, mvptree.GeneralOptions{Vantages: 2, Partitions: 2, Build: bo})
	must("general", gen, err)
	out["linear"] = mvptree.NewLinear(words, mvptree.EditDistance)
	bk, err := mvptree.NewBK(words, mvptree.EditDistance)
	must("bk", bk, err)
	return out
}

// checkZeroOptsIdentical asserts Search with zero options reproduces
// the exact methods byte for byte.
func checkZeroOptsIdentical[T any](t *testing.T, name string, idx mvptree.Searcher[T], queries []T, r float64, k int) {
	t.Helper()
	for qi, q := range queries {
		c0 := idx.DistanceCount()
		wantItems, wantRS := idx.RangeWithStats(q, r)
		wantCost := idx.DistanceCount() - c0
		c0 = idx.DistanceCount()
		res := idx.Search(mvptree.NewRangeQuery(q, r))
		gotCost := idx.DistanceCount() - c0
		if !res.Exact() || res.Exhausted() {
			t.Errorf("%s q%d: zero-option range Search not reported exact: %+v", name, qi, res.Stats)
		}
		if !reflect.DeepEqual(wantItems, res.Items) {
			t.Errorf("%s q%d: range Search items differ: %d vs %d", name, qi, len(wantItems), len(res.Items))
		}
		if res.Stats != wantRS {
			t.Errorf("%s q%d: range Search stats differ:\n  exact  %+v\n  search %+v", name, qi, wantRS, res.Stats)
		}
		if gotCost != wantCost {
			t.Errorf("%s q%d: range Search cost %d, exact %d", name, qi, gotCost, wantCost)
		}
		if res.Stats.Distances() != gotCost {
			t.Errorf("%s q%d: range Stats.Distances()=%d, counter delta %d", name, qi, res.Stats.Distances(), gotCost)
		}

		c0 = idx.DistanceCount()
		wantNb, wantKS := idx.KNNWithStats(q, k)
		wantCost = idx.DistanceCount() - c0
		c0 = idx.DistanceCount()
		kres := idx.Search(mvptree.NewKNNQuery(q, k))
		gotCost = idx.DistanceCount() - c0
		if !kres.Exact() || kres.Exhausted() {
			t.Errorf("%s q%d: zero-option kNN Search not reported exact: %+v", name, qi, kres.Stats)
		}
		if !reflect.DeepEqual(wantNb, kres.Neighbors) {
			t.Errorf("%s q%d: kNN Search neighbors differ", name, qi)
		}
		if kres.Stats != wantKS {
			t.Errorf("%s q%d: kNN Search stats differ:\n  exact  %+v\n  search %+v", name, qi, wantKS, kres.Stats)
		}
		if gotCost != wantCost {
			t.Errorf("%s q%d: kNN Search cost %d, exact %d", name, qi, gotCost, wantCost)
		}
		if kres.Stats.Distances() != gotCost {
			t.Errorf("%s q%d: kNN Stats.Distances()=%d, counter delta %d", name, qi, kres.Stats.Distances(), gotCost)
		}
	}
}

// TestCapabilitiesTable pins the query surfaces of the ten
// implementations: the eight structures, the dynamic store and the
// sharded index are all Searchers, and exactly the mvp-tree, the
// vp-tree and the sharded index are BatchSearchers. It also
// pins the line between the two tiers (DESIGN.md "Two tiers"): which of
// the optional surfaces each implementation has — every one of them on
// the served core, none on the five comparison structures — and that a
// constructor handed WithCascade or WithQuantized for a structure with
// no such mode returns an error naming it.
func TestCapabilitiesTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 7))
	words := mvptree.Words(rng, 200, mvptree.WordOptions{})
	all := map[string]mvptree.Searcher[string]{}
	for name, idx := range editSearchers(t, words) {
		all[name] = idx
	}
	dyn, err := mvptree.NewDynamic(words, mvptree.EditDistance, mvptree.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all["dynamic"] = dyn
	sharded, err := shard.New(words, mvptree.NewCounter(mvptree.EditDistance),
		shard.MVP[string](mvptree.Options{}), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	all["shard"] = sharded
	if len(all) != 10 {
		t.Fatalf("table covers %d implementations, want 10", len(all))
	}
	batch := map[string]bool{"mvp": true, "vp": true, "shard": true}
	core := "EnableCascade EnableQuantize KFarthest Own Save SearchBatch"
	surfaces := map[string]string{
		"mvp": core, "vp": core,
		"shard":   "EnableCascade EnableQuantize Own SaveDir SearchBatch",
		"dynamic": "KFarthest Save",
		"linear":  "EnableQuantize KFarthest",
		"general": "", "gnat": "", "ball": "", "bk": "", "pivot": "",
	}
	for name, idx := range all {
		if _, got := idx.(mvptree.BatchSearcher[string]); got != batch[name] {
			t.Errorf("%s: BatchSearcher %v, want %v", name, got, batch[name])
		}
		var has []string
		for _, m := range []string{"EnableCascade", "EnableQuantize", "KFarthest", "Own", "Save", "SaveDir", "SearchBatch"} {
			if _, ok := reflect.TypeOf(idx).MethodByName(m); ok {
				has = append(has, m)
			}
		}
		if got := strings.Join(has, " "); got != surfaces[name] {
			t.Errorf("%s: optional surfaces %q, want %q", name, got, surfaces[name])
		}
	}

	refused := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: option the structure cannot honour was accepted", name)
		} else if !strings.Contains(err.Error(), "has no") {
			t.Errorf("%s: %v", name, err)
		}
	}
	vectors := mvptree.UniformVectors(rng, 50, 4)
	for name, build := range vecBuilders(vectors) {
		if slices.Contains(accelerated, name) {
			continue
		}
		_, err := build(mvptree.WithCascade[[]float64](mvptree.CascadeOptions{}))
		refused(name+"/cascade", err)
		_, err = build(mvptree.WithQuantized[[]float64](mvptree.QuantizeSQ8))
		refused(name+"/sq8", err)
	}
	_, err = mvptree.NewBK(words, mvptree.EditDistance, mvptree.WithCascade[string](mvptree.CascadeOptions{}))
	refused("bk/cascade", err)
	_, err = mvptree.NewBK(words, mvptree.EditDistance, mvptree.WithQuantized[string](mvptree.QuantizeSQ8))
	refused("bk/sq8", err)
}

// TestSearchZeroOptionsByteIdentical is the cross-structure invariance
// table: ε = 0 and an unset budget must reproduce the exact paths on
// every structure and workload.
func TestSearchZeroOptionsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	uniform := mvptree.UniformVectors(rng, 1200, 8)
	clustered := mvptree.ClusteredVectors(rng, 1200, 8, 60, 0.12)
	vecQueries := mvptree.UniformVectors(rng, 6, 8)
	words := mvptree.Words(rng, 600, mvptree.WordOptions{})
	wordQueries := mvptree.Words(rng, 5, mvptree.WordOptions{})

	for wlName, items := range map[string][][]float64{"uniform": uniform, "clustered": clustered} {
		for name, idx := range vecSearchers(t, items) {
			t.Run(wlName+"/"+name, func(t *testing.T) {
				checkZeroOptsIdentical(t, name, idx, vecQueries, 0.6, 5)
			})
		}
	}
	for name, idx := range editSearchers(t, words) {
		t.Run("edit/"+name, func(t *testing.T) {
			checkZeroOptsIdentical(t, name, idx, wordQueries, 2, 3)
		})
	}
	// A budget the traversal completes within must reproduce the
	// zero-options Search in every observable — items or neighbors,
	// order, each SearchStats field (FilteredByQuantized included, which
	// SQ8 must move where it has leaf items), the Exact flag and the
	// counter delta —
	// on the plain tree and with the cascade and the SQ8 pre-filter
	// armed: the budgeted query is the same traversal, so it gets the
	// same accelerators.
	accel := []mvptree.IndexOption[[]float64]{
		mvptree.WithCascade[[]float64](mvptree.CascadeOptions{}),
		mvptree.WithQuantized[[]float64](mvptree.QuantizeSQ8),
	}
	// skips says whether SQ8 has leaf candidates to skip: a classic
	// vp-tree keeps none.
	budgeted := map[string]struct {
		idx   mvptree.Searcher[[]float64]
		skips bool
	}{
		"mvp":             {buildVec(t, uniform, []string{"mvp"})["mvp"], false},
		"mvp+cascade+sq8": {buildVec(t, uniform, []string{"mvp"}, accel...)["mvp"], true},
		"vp+cascade+sq8":  {buildVec(t, uniform, []string{"vp"}, accel...)["vp"], false},
	}
	for name, c := range budgeted {
		t.Run("budget/"+name, func(t *testing.T) {
			skipped := 0
			for qi, q := range vecQueries {
				for _, req := range []mvptree.Query[[]float64]{mvptree.NewRangeQuery(q, 0.6), mvptree.NewKNNQuery(q, 5)} {
					c0 := c.idx.DistanceCount()
					want := c.idx.Search(req)
					wantCost := c.idx.DistanceCount() - c0
					req.Opts.Budget = 1 << 40
					c0 = c.idx.DistanceCount()
					got := c.idx.Search(req)
					gotCost := c.idx.DistanceCount() - c0
					if !got.Exact() || got.Exhausted() {
						t.Errorf("q%d k=%d: unlimited-budget query flagged approximate: %+v", qi, req.K, got.Stats)
					}
					if !reflect.DeepEqual(want.Items, got.Items) || !reflect.DeepEqual(want.Neighbors, got.Neighbors) {
						t.Errorf("q%d k=%d: unlimited-budget answer differs from zero-options Search", qi, req.K)
					}
					if got.Stats != want.Stats {
						t.Errorf("q%d k=%d: stats differ:\n  zero   %+v\n  budget %+v", qi, req.K, want.Stats, got.Stats)
					}
					if gotCost != wantCost {
						t.Errorf("q%d k=%d: cost %d vs %d", qi, req.K, gotCost, wantCost)
					}
					skipped += got.Stats.FilteredByQuantized
				}
			}
			if c.skips != (skipped > 0) {
				t.Errorf("%d quantized skips, want some: %v", skipped, c.skips)
			}
		})
	}
}

// TestApproxSemanticsAllStructures checks the two knobs' contracts
// on every vector structure and the sharded index: ε-range answers sit between the exact
// answer at r/(1+ε) and the exact answer at r; ε-kNN distances are
// within (1+ε) of the true ones rank by rank; budgeted queries never
// spend more than the budget and report exhaustion; and
// Stats.Distances() equals the counter delta even mid-traversal. The
// table runs twice: plain, and with the cascade and the SQ8 pre-filter
// on the structures that have them (the linear scan: SQ8 only) — the
// approximate query is the one traversal, so the contracts must hold
// with its accelerators switched on.
func TestApproxSemanticsAllStructures(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 9))
	items := mvptree.ClusteredVectors(rng, 1500, 10, 75, 0.15)
	queries := mvptree.UniformVectors(rng, 5, 10)
	const (
		eps = 0.5
		r   = 0.7
		k   = 5
	)
	scan := mvptree.NewLinear(items, mvptree.L2)

	all := map[string]mvptree.Searcher[[]float64]{}
	for name, idx := range vecSearchers(t, items) {
		all[name] = idx
	}
	for name, idx := range buildVec(t, items, accelerated,
		mvptree.WithCascade[[]float64](mvptree.CascadeOptions{}),
		mvptree.WithQuantized[[]float64](mvptree.QuantizeSQ8)) {
		all["cascade+sq8/"+name] = idx
	}
	// The sharded index the daemon serves deals a budget across shards.
	all["shard2"] = shardedVec(t, items, 2)
	all["shard3"] = shardedVec(t, items, 3)
	for name, idx := range all {
		t.Run(name, func(t *testing.T) {
			for qi, q := range queries {
				// ε-range: superset of exact at r/(1+ε), subset of exact at r.
				within := map[string]bool{}
				for _, it := range scan.Range(q, r) {
					within[fmt.Sprint(it)] = true
				}
				guaranteed := scan.Range(q, r/(1+eps))

				req := mvptree.NewRangeQuery(q, r)
				req.Opts.Epsilon = eps
				res := idx.Search(req)
				if res.Exact() {
					t.Errorf("q%d: ε>0 answer claimed exact", qi)
				}
				got := map[string]bool{}
				for _, it := range res.Items {
					key := fmt.Sprint(it)
					got[key] = true
					if !within[key] {
						t.Errorf("q%d: ε-range reported an item farther than r", qi)
					}
				}
				for _, it := range guaranteed {
					if !got[fmt.Sprint(it)] {
						t.Errorf("q%d: ε-range missed an item within r/(1+ε)", qi)
					}
				}

				// ε-kNN: i-th distance within (1+ε) of the true i-th.
				trueNb := scan.KNN(q, k)
				kreq := mvptree.NewKNNQuery(q, k)
				kreq.Opts.Epsilon = eps
				kres := idx.Search(kreq)
				if len(kres.Neighbors) != len(trueNb) {
					t.Fatalf("q%d: ε-kNN returned %d of %d neighbors", qi, len(kres.Neighbors), len(trueNb))
				}
				for i, nb := range kres.Neighbors {
					if nb.Dist > (1+eps)*trueNb[i].Dist+1e-12 {
						t.Errorf("q%d: ε-kNN dist[%d]=%g exceeds (1+ε)·%g", qi, i, nb.Dist, trueNb[i].Dist)
					}
				}

				// Budget: tiny budget must be respected to the computation
				// and reported; the stats must reconcile with the counter.
				const budget = 25
				breq := mvptree.NewKNNQuery(q, k)
				breq.Opts.Budget = budget
				c0 := idx.DistanceCount()
				bres := idx.Search(breq)
				delta := idx.DistanceCount() - c0
				if delta > budget {
					t.Errorf("q%d: budget %d but %d distances computed", qi, budget, delta)
				}
				if bres.Stats.Distances() != delta {
					t.Errorf("q%d: budget run Stats.Distances()=%d, counter delta %d", qi, bres.Stats.Distances(), delta)
				}
				if !bres.Exhausted() {
					t.Errorf("q%d: %d-distance budget on %d items not reported exhausted", qi, budget, len(items))
				}
			}
		})
	}

	// A budget below the shard count: budgetShare deals the third shard
	// nothing, so it is skipped and the query is still exhausted.
	t.Run("shard3_budget2", func(t *testing.T) {
		x := all["shard3"]
		for qi, q := range queries {
			for _, req := range []mvptree.Query[[]float64]{mvptree.NewRangeQuery(q, r), mvptree.NewKNNQuery(q, k)} {
				req.Opts.Budget = 2
				c0 := x.DistanceCount()
				res := x.Search(req)
				delta := x.DistanceCount() - c0
				if delta > 2 || res.Stats.Distances() != delta || !res.Exhausted() {
					t.Errorf("q%d k=%d: budget 2 spent %d (stats say %d), exhausted %v",
						qi, req.K, delta, res.Stats.Distances(), res.Exhausted())
				}
			}
		}
	})
}

// TestHugeKAllocatesNothingOnItsWord asks every implementation for far
// more neighbours than it holds. The answer is every item, nearest (or
// farthest) first, exactly as the scan orders their distances — and no
// heap was sized by k, which would end the process in makeslice rather
// than fail this test.
func TestHugeKAllocatesNothingOnItsWord(t *testing.T) {
	const hugeK = math.MaxInt // also overflows any k + extras sum left unclamped
	rng := rand.New(rand.NewPCG(43, 7))
	words := mvptree.Words(rng, 120, mvptree.WordOptions{})
	all := editSearchers(t, words)
	dyn, err := mvptree.NewDynamic(words[:100], mvptree.EditDistance, mvptree.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range words[100:] {
		if err := dyn.Insert(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range words[:10] { // tombstones: the store asks its tree for k + dead
		if _, err := dyn.Delete(w); err != nil {
			t.Fatal(err)
		}
	}
	all["dynamic"] = dyn
	for _, s := range []int{1, 3} {
		x, err := shard.New(words, mvptree.NewCounter(mvptree.EditDistance), shard.MVP[string](mvptree.Options{}), shard.Options{Shards: s})
		if err != nil {
			t.Fatal(err)
		}
		all[fmt.Sprintf("shard%d", s)] = x
	}

	dists := func(nbs []mvptree.Neighbor[string]) []float64 {
		out := make([]float64, len(nbs))
		for i, nb := range nbs {
			out[i] = nb.Dist
		}
		return out
	}
	for name, idx := range all {
		for _, q := range []string{words[17], "zzzzzz"} {
			// The scan over what idx holds right now (the store deleted some).
			scan := mvptree.NewLinear(idx.Range(q, 100), mvptree.EditDistance) // no two words are 100 edits apart
			if scan.Len() != idx.Len() {
				t.Fatalf("%s: a range query wider than the space found %d of %d items", name, scan.Len(), idx.Len())
			}
			want := dists(scan.KNN(q, scan.Len()))
			for label, got := range map[string][]mvptree.Neighbor[string]{
				"KNN":    idx.KNN(q, hugeK),
				"Search": idx.Search(mvptree.NewKNNQuery(q, hugeK)).Neighbors,
			} {
				if !slices.Equal(dists(got), want) {
					t.Errorf("%s %s(%q, MaxInt): %d neighbours %v, the scan orders %d", name, label, q, len(got), dists(got), len(want))
				}
			}
			if kf, ok := idx.(interface {
				KFarthest(string, int) []mvptree.Neighbor[string]
			}); ok {
				got, far := dists(kf.KFarthest(q, hugeK)), slices.Clone(want)
				slices.Reverse(far)
				if !slices.Equal(got, far) {
					t.Errorf("%s KFarthest(%q, MaxInt): %d neighbours, the scan orders %d", name, q, len(got), len(far))
				}
			}
		}
	}
}
