package mvp

// Tests that pin the float32 leaf filter's soundness rule (narrow.go):
// the stored values are narrowed, the tree's slack covers what that
// lost, and no query answer or — for integer-valued metrics — no
// counter moves because of it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

func TestNarrow(t *testing.T) {
	gap := func(v float32) float64 { return slackOf([]float32{v}) }
	for _, x := range []float64{0, 1, 5, 1 << 23, 0.5, 0.75, math.Inf(1), math.SmallestNonzeroFloat32} {
		v := narrow(x)
		if float64(v) != x {
			t.Errorf("narrow(%g) = %g, want the value kept", x, v)
		}
		if math.Float32bits(v)&1 == 0 && gap(v) != 0 {
			t.Errorf("exact even value %g is charged slack %g", x, gap(v))
		}
	}
	rng := rand.New(rand.NewPCG(5, 15))
	for i := 0; i < 200000; i++ {
		// Magnitudes from deep in the float32 denormals to just under
		// its largest value.
		x := rng.Float64() * math.Pow(2, float64(rng.IntN(280)-152))
		v := narrow(x)
		if float64(v) == x {
			continue
		}
		if math.Float32bits(v)&1 == 0 {
			t.Fatalf("narrow(%g) = %g: inexact, yet its last bit is clear", x, v)
		}
		if err := math.Abs(x - float64(v)); !(err < gap(v)) {
			t.Fatalf("narrow(%g) = %g: off by %g, slack would be %g", x, v, err, gap(v))
		}
	}
	if v := narrow(1e39); v != math.MaxFloat32 || !math.IsInf(gap(v), 1) {
		t.Errorf("narrow(1e39) = %g with slack %g, want MaxFloat32 and +Inf", v, gap(v))
	}
	if v := narrow(1e-60); v != math.SmallestNonzeroFloat32 {
		t.Errorf("narrow(1e-60) = %g, want the smallest denormal (never zero)", v)
	}
	if s := slackOf([]float32{0, 3, 17, 1 << 22, float32(math.Inf(1))}); s != 0 {
		t.Errorf("integer distances have slack %g, want 0", s)
	}
}

// reload round-trips a tree of IDs through Save and Load.
func reload(t *testing.T, tree *Tree[int], c *metric.Counter[int]) *Tree[int] {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Save(&buf, encodeID); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, c, decodeID)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// checkAllQueryKinds compares Range, SearchBatch, RangeFarther, KNN and
// KFarthest against the workload's linear scan.
func checkAllQueryKinds(t *testing.T, name string, tree *Tree[int], w *testutil.Workload, radii []float64, ks []int) {
	t.Helper()
	testutil.CheckRange(t, name, tree, w, radii)
	testutil.CheckRangeFarther(t, name, tree, w, radii)
	testutil.CheckKNN(t, name, tree, w, ks)
	testutil.CheckKFarthest(t, name, tree, w, ks)
	var reqs []index.Query[int]
	for _, q := range w.Queries {
		for _, r := range radii {
			reqs = append(reqs, index.RangeQuery(q, r))
		}
	}
	results := make([]index.Result[int], len(reqs))
	tree.SearchBatch(reqs, results)
	for i, req := range reqs {
		if one := tree.Search(req); !reflect.DeepEqual(results[i], one) {
			t.Errorf("%s: SearchBatch[%d] (q=%d, r=%g) differs from Search", name, i, req.Point, req.Radius)
			return
		}
	}
}

// TestFilterSoundAtBoundaryRadii queries at radii where the
// triangle-inequality bound is tight: r = |d(q,v) − d(x,v)| for a PATH
// vantage point v, and the float64 on either side of it.
//
// On the line every coordinate is a multiple of 2⁻⁴⁰, so distances,
// windows and bounds are computed without rounding and |d(q,v) − d(x,v)|
// is d(q,x) itself whenever q and x lie on one side of v: the item sits
// exactly on the filter's edge, float32 cannot hold its distances, and
// only the slack keeps it in the answer. The uniform vectors are the
// same recipe in general position.
func TestFilterSoundAtBoundaryRadii(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 6))
	const n, nq = 700, 6
	line := make([]float64, n+nq)
	for i := range line {
		line[i] = float64(rng.Uint64N(1<<40)) / (1 << 40)
	}
	lineDist := func(a, b int) float64 { return math.Abs(line[a] - line[b]) }
	workloads := map[string]*testutil.Workload{
		"line":    {Items: testutil.IDs(n), Dist: lineDist, Truth: linear.New(testutil.IDs(n), metric.NewCounter(lineDist))},
		"uniform": testutil.NewVectorWorkload(rng, n, 6, nq, metric.L2),
	}
	for i := 0; i < nq; i++ {
		workloads["line"].Queries = append(workloads["line"].Queries, n+i)
	}
	for name, w := range workloads {
		for _, opts := range optionMatrix[2:] {
			tree, c := buildWorkloadTree(t, w, opts)
			if tree.slack <= 0 || tree.slack > 1e-6 {
				t.Fatalf("%s: slack = %g, want a float32 gap near these distances", name, tree.slack)
			}
			var radii []float64
			for _, q := range w.Queries {
				for _, v := range []int{tree.root.sv1, tree.root.sv2} {
					x := w.Items[rng.IntN(n)]
					r := math.Abs(w.Dist(q, v) - w.Dist(x, v))
					radii = append(radii, math.Nextafter(r, 0), r, math.Nextafter(r, 2))
				}
			}
			loaded := reload(t, tree, c)
			if loaded.slack != tree.slack {
				t.Fatalf("%s: slack %g became %g across Save/Load", name, tree.slack, loaded.slack)
			}
			checkAllQueryKinds(t, name, tree, w, radii, []int{1, 7, 60})
			checkAllQueryKinds(t, name+"/loaded", loaded, w, radii, []int{1, 7, 60})
		}
	}
}

// TestFilterSoundAtExtremeMagnitudes runs one dataset under the metric
// scaled past float32's range (every stored distance clamps, the filter
// idles), scaled into its denormals, and with +Inf between two halves
// of the data (an extended metric: the triangle inequality holds).
func TestFilterSoundAtExtremeMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 7))
	base := testutil.NewVectorWorkload(rng, 500, 5, 6, metric.L2)
	variant := func(dist metric.DistanceFunc[int]) *testutil.Workload {
		return &testutil.Workload{Items: base.Items, Queries: base.Queries, Dist: dist,
			Truth: linear.New(base.Items, metric.NewCounter(dist))}
	}
	radii := []float64{0, 0.2, 0.45, 0.8, 3}
	for _, scale := range []float64{1e39, 1e30, 1e-42} {
		w := variant(func(a, b int) float64 { return scale * base.Dist(a, b) })
		scaled := make([]float64, len(radii))
		for i, r := range radii {
			scaled[i] = scale * r
		}
		tree, c := buildWorkloadTree(t, w, optionMatrix[3])
		if wantIdle := scale > math.MaxFloat32; math.IsInf(tree.slack, 1) != wantIdle {
			t.Errorf("scale %g: slack = %g", scale, tree.slack)
		}
		name := fmt.Sprintf("scale %g", scale)
		checkAllQueryKinds(t, name, tree, w, scaled, []int{1, 10})
		checkAllQueryKinds(t, name+"/loaded", reload(t, tree, c), w, scaled, []int{1, 10})
	}

	// Odd and even IDs are infinitely far apart; the queries (IDs 500…)
	// keep both parities. k stays below a half's size: the items at +Inf
	// have no order among themselves.
	w := variant(func(a, b int) float64 {
		if a%2 != b%2 {
			return math.Inf(1)
		}
		return base.Dist(a, b)
	})
	tree, c := buildWorkloadTree(t, w, optionMatrix[3])
	for name, tr := range map[string]*Tree[int]{"inf": tree, "inf/loaded": reload(t, tree, c)} {
		testutil.CheckRange(t, name, tr, w, radii)
		testutil.CheckRangeFarther(t, name, tr, w, radii)
		testutil.CheckKNN(t, name, tr, w, []int{1, 10, 100})
	}
}

// TestIntegerMetricIdenticalToFloat64Leaves replays a fixed word
// workload whose per-query SearchStats and counter deltas were recorded
// at the commit before leaves became float32 (PR 14). Edit distances
// are float32-exact, so slack is 0 and every filter decision, tie prune
// and count is the one a float64 leaf made. The recorded tree drew its
// first vantage points, hence RandomFirstVantage.
func TestIntegerMetricIdenticalToFloat64Leaves(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(15, 1)), 3000, dataset.WordOptions{MinLen: 4, MaxLen: 11, MisspellingsPer: 3})
	c := metric.NewCounter(metric.Edit)
	tree, err := New(words, c, Options{Partitions: 3, LeafCapacity: 20, PathLength: 5, RandomFirstVantage: true, Build: Build{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if tree.slack != 0 {
		t.Fatalf("slack = %g over edit distances, want 0", tree.slack)
	}
	h := sha256.New()
	var sum SearchStats
	var total int64
	add := func(s SearchStats, delta int64) {
		fmt.Fprintln(h, s.NodesVisited, s.LeavesVisited, s.ShellsPruned, s.Candidates, s.FilteredByD, s.FilteredByPath, s.Computed, s.VantagePoints, s.Results, delta)
		sum.NodesVisited += s.NodesVisited
		sum.LeavesVisited += s.LeavesVisited
		sum.ShellsPruned += s.ShellsPruned
		sum.Candidates += s.Candidates
		sum.FilteredByD += s.FilteredByD
		sum.FilteredByPath += s.FilteredByPath
		sum.Computed += s.Computed
		sum.VantagePoints += s.VantagePoints
		sum.Results += s.Results
		total += delta
	}
	qrng := rand.New(rand.NewPCG(15, 2))
	for i := 0; i < 60; i++ {
		q := words[qrng.IntN(len(words))]
		if i%3 == 0 {
			q += "x"
		}
		for _, r := range []float64{0, 1, 2, 2.5} {
			before := c.Count()
			_, s := tree.RangeWithStats(q, r)
			add(s, c.Count()-before)
		}
		for _, k := range []int{1, 10, 25} {
			before := c.Count()
			_, s := tree.KNNWithStats(q, k)
			add(s, c.Count()-before)
		}
	}
	want := SearchStats{NodesVisited: 198134, LeavesVisited: 172844, ShellsPruned: 25327, Candidates: 322151,
		FilteredByD: 82597, FilteredByPath: 33910, Computed: 205644, VantagePoints: 396268, Results: 2660}
	if tree.BuildCost() != 21132 || sum != want || total != 601912 {
		t.Errorf("build %d distances, queries %+v, %d distances;\nrecorded 21132, %+v, 601912", tree.BuildCost(), sum, total, want)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != "3e33aa1598638b108a41ed94412fc2704ce22106e37310b319682bffafabb221" {
		t.Errorf("per-query stats hash %s differs from the recorded one", got)
	}
}

// TestLoadsFloat64LeafStream loads a stream written by PR 14, whose leaf
// distances have all 53 bits, and holds it to a fresh build of the same
// items: same Save bytes (the narrowed ones), same slack, same answers
// at the same cost. PR 14 drew its first vantage points, so the fresh
// build does too.
func TestLoadsFloat64LeafStream(t *testing.T) {
	old, err := os.ReadFile("testdata/pr14_float64_leaves.mvp")
	if err != nil {
		t.Fatal(err)
	}
	items := dataset.UniformVectors(rand.New(rand.NewPCG(15, 3)), 400, 6)
	fresh, err := New(items, metric.NewCounter(metric.L2), Options{Partitions: 2, LeafCapacity: 7, PathLength: 4, RandomFirstVantage: true, Build: Build{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(old), metric.NewCounter(metric.L2), codec.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	save := func(tr *Tree[[]float64]) []byte {
		var buf bytes.Buffer
		if err := tr.Save(&buf, codec.EncodeVector); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	narrowed := save(loaded)
	if len(narrowed) != len(old) || bytes.Equal(narrowed, old) {
		t.Errorf("saving the loaded tree gave %d bytes for %d: want the same layout, narrower distances", len(narrowed), len(old))
	}
	if !bytes.Equal(narrowed, save(fresh)) {
		t.Error("the loaded tree saves differently from a fresh build of the same items")
	}
	again, err := Load(bytes.NewReader(narrowed), metric.NewCounter(metric.L2), codec.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(again), narrowed) {
		t.Error("Save → Load → Save is not byte-stable")
	}
	if loaded.slack != fresh.slack || again.slack != fresh.slack || fresh.slack == 0 {
		t.Errorf("slack: fresh %g, loaded %g, reloaded %g", fresh.slack, loaded.slack, again.slack)
	}
	for _, q := range dataset.UniformVectors(rand.New(rand.NewPCG(15, 4)), 40, 6) {
		for _, tr := range []*Tree[[]float64]{loaded, again} {
			for _, r := range []float64{0.1, 0.35, 0.7} {
				if got, want := tr.Search(index.RangeQuery(q, r)), fresh.Search(index.RangeQuery(q, r)); !reflect.DeepEqual(got, want) {
					t.Fatalf("Range(r=%g): loaded %+v, fresh %+v", r, got.Stats, want.Stats)
				}
			}
			if got, want := tr.Search(index.KNNQuery(q, 9)), fresh.Search(index.KNNQuery(q, 9)); !reflect.DeepEqual(got, want) {
				t.Fatalf("KNN: loaded %+v, fresh %+v", got.Stats, want.Stats)
			}
		}
	}
}
