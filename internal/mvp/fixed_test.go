package mvp

// Tests that pin the fixed-point leaf filter's soundness rule (fixed.go):
// the stored distances are put on a grid, the tree's slack covers what
// that lost, and no query answer or — for integer-valued metrics — no
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
	"slices"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
	"mvptree/internal/wire"
)

// TestNarrow pins the three functions every stored distance and every
// query window goes through: stepExp, encode and Tree.window.
func TestNarrow(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 15))
	for i := 0; i < 2000; i++ {
		// Magnitudes from the smallest denormal to MaxFloat64.
		top := math.Ldexp(1+rng.Float64(), rng.IntN(2098)-1075)
		if i == 0 {
			top = math.MaxFloat64
		}
		e := stepExp([]float64{0, top / 3, top, math.Inf(1), math.NaN(), -1})
		if e < minStepExp || e > maxStepExp {
			t.Fatalf("stepExp(%g) = %d, outside [%d, %d]", top, e, minStepExp, maxStepExp)
		}
		step := math.Ldexp(1, e)
		if top/step > topCode || e > minStepExp && top/(step/2) <= topCode {
			t.Fatalf("stepExp(%g) = %d: not the smallest step that holds it", top, e)
		}
		tree := &Tree[int]{step: step}
		for j := 0; j < 100; j++ {
			x := top * rng.Float64()
			if j%10 == 0 {
				x = step * float64(rng.IntN(int(top/step)+1)) // on the grid
			}
			c := encode(x, step)
			switch v := tree.decode(c); {
			case c > topCode:
				t.Fatalf("encode(%g, step %g) = %d, past the top code", x, step, c)
			case v == x:
			case c&1 == 0:
				t.Fatalf("encode(%g, step %g) = %d: inexact, yet even", x, step, c)
			case !(math.Abs(x-v) < step):
				t.Fatalf("encode(%g, step %g) = %d: off by %g", x, step, c, math.Abs(x-v))
			}
			// A window keeps exactly the codes whose values it holds.
			y := top * rng.Float64()
			lo, hi := window(min(x, y), max(x, y), tree.step)
			for _, c := range []uint16{encode(x, step), encode(y, step), uint16(rng.UintN(topCode + 1))} {
				if v := tree.decode(c); (min(x, y) <= v && v <= max(x, y)) != (lo <= c && c <= hi) {
					t.Fatalf("window(%g, %g) at step %g = [%d, %d]: wrong about code %d", min(x, y), max(x, y), step, lo, hi, c)
				}
			}
		}
	}
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -1, 65535} {
		if c := encode(x, 1); c != idleCode || !math.IsInf(slackOf([]uint16{0, c}, 1), 1) {
			t.Errorf("encode(%g, 1) = %d, want the idle code and an infinite slack", x, c)
		}
	}
	if c := encode(math.SmallestNonzeroFloat64, 0x1p1000); c != 1 {
		t.Errorf("the smallest distance on the coarsest grid took code %d, want 1 (never zero)", c)
	}
	// Integer distances up to 32 767 are exact and even: no slack.
	for _, top := range []float64{1, 20, 255, 32767} {
		step := math.Ldexp(1, stepExp([]float64{top}))
		var codes []uint16
		for x := 0.0; x <= top; x += max(1, math.Floor(top/50)) {
			codes = append(codes, encode(x, step))
			if float64(codes[len(codes)-1])*step != x {
				t.Errorf("integer %g is off the grid of step %g", x, step)
			}
		}
		if s := slackOf(append(codes, encode(top, step)), step); s != 0 {
			t.Errorf("integer distances up to %g have slack %g, want 0", top, s)
		}
	}
	if s := slackOf([]uint16{0, 2, 7, 4}, 0.25); s != 0.25 {
		t.Errorf("slackOf with an odd code = %g, want the step", s)
	}
	// Windows move outward, never inward, where a bound is not a number
	// on the grid: all of these must keep every code.
	tree := &Tree[int]{step: 0.5}
	inf, nan := math.Inf(1), math.NaN()
	for _, w := range [][2]float64{{-inf, inf}, {nan, nan}, {-3, 1e9}, {nan, inf}, {-inf, nan}} {
		if lo, hi := window(w[0], w[1], tree.step); lo != 0 || hi != idleCode {
			t.Errorf("window(%g, %g) = [%d, %d], want every code", w[0], w[1], lo, hi)
		}
	}
	if lo, hi := window(inf, inf, tree.step); lo != idleCode || hi != idleCode {
		t.Errorf("window(+Inf, +Inf) = [%d, %d], want no code a distance takes", lo, hi)
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
// exactly on the filter's edge, a 16-bit code cannot hold its distances
// — it is the last code inside the window — and only the slack, and a
// window not rounded inward, keep it in the answer. Half the line's
// points have a twin 2⁻²⁰ away, so that kNN meets bounds within a step of
// τ. The uniform vectors are the same recipe in general position.
func TestFilterSoundAtBoundaryRadii(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 6))
	const n, nq = 700, 6
	line := make([]float64, n+nq)
	for i := range line {
		line[i] = float64(rng.Uint64N(1<<40)) / (1 << 40)
		if i%2 == 1 && i < n {
			// Twins well inside one step of each other: kNN must still
			// tell which is nearer, whichever it met first.
			line[i] = line[i-1] + 0x1p-20
		}
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
			if len(tree.filter) == 0 {
				continue // the classic vp-tree: nothing stored, nothing to round
			}
			if tree.slack != tree.step || tree.step > 1e-4 {
				t.Fatalf("%s: step %g, slack %g, want one step of a grid this fine", name, tree.step, tree.slack)
			}
			var radii []float64
			for _, q := range w.Queries {
				for _, v := range tree.vantages(0) {
					x := w.Items[rng.IntN(n)]
					r := math.Abs(w.Dist(q, v) - w.Dist(x, v))
					radii = append(radii, math.Nextafter(r, 0), r, math.Nextafter(r, 2))
				}
			}
			loaded := reload(t, tree, c)
			if loaded.slack != tree.slack || loaded.step != tree.step {
				t.Fatalf("%s: step %g, slack %g became %g, %g across Save/Load", name, tree.step, tree.slack, loaded.step, loaded.slack)
			}
			ks := []int{1, 2, 3, 7, 8, 20, 21, 60, 61}
			checkAllQueryKinds(t, name, tree, w, radii, ks)
			checkAllQueryKinds(t, name+"/loaded", loaded, w, radii, ks)
		}
	}
}

// TestFilterSoundAtExtremeMagnitudes runs one dataset under the metric
// scaled to either end of float64's range, capped so that the largest
// stored distance lands on the top code, scaled into the denormals, and
// with +Inf between two halves of the data (an extended metric: the
// triangle inequality holds), where the filter idles.
func TestFilterSoundAtExtremeMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 7))
	base := testutil.NewVectorWorkload(rng, 500, 5, 6, metric.L2)
	variant := func(dist metric.DistanceFunc[int]) *testutil.Workload {
		return &testutil.Workload{Items: base.Items, Queries: base.Queries, Dist: dist,
			Truth: linear.New(base.Items, metric.NewCounter(dist))}
	}
	radii := []float64{0, 0.2, 0.45, 0.8, 3}
	// Rounding up to a multiple of 2⁻²⁰ and capping both keep a metric a
	// metric, and make the scaled distances below exact.
	coarse := func(a, b int) float64 { return math.Ceil(base.Dist(a, b)*(1<<20)) / (1 << 20) }
	for name, v := range map[string]struct {
		scale    float64
		dist     metric.DistanceFunc[int]
		wantStep float64
	}{
		"huge": {1e300, func(a, b int) float64 { return 1e300 * base.Dist(a, b) }, 0},
		"tiny": {1e-300, func(a, b int) float64 { return 1e-300 * base.Dist(a, b) }, 0},
		// Every pair a unit apart or more measures topCode: step 1.
		"top code":  {topCode, func(a, b int) float64 { return min(topCode*base.Dist(a, b), topCode) }, 1},
		"denormals": {0x1p-1054, func(a, b int) float64 { return 0x1p-1054 * coarse(a, b) }, 0x1p-1069},
	} {
		w := variant(v.dist)
		scaled := make([]float64, len(radii))
		for i, r := range radii {
			scaled[i] = v.scale * r
		}
		tree, c := buildWorkloadTree(t, w, optionMatrix[3])
		if tree.slack != tree.step || v.wantStep != 0 && tree.step != v.wantStep {
			t.Errorf("%s: step %g, slack %g", name, tree.step, tree.slack)
		}
		if err := tree.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
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
	if !math.IsInf(tree.slack, 1) {
		t.Errorf("slack = %g with +Inf among the stored distances, want the filter idle", tree.slack)
	}
	if err := tree.Validate(); err != nil {
		t.Error(err)
	}
	for name, tr := range map[string]*Tree[int]{"inf": tree, "inf/loaded": reload(t, tree, c)} {
		testutil.CheckRange(t, name, tr, w, radii)
		testutil.CheckRangeFarther(t, name, tr, w, radii)
		testutil.CheckKNN(t, name, tr, w, []int{1, 10, 100})
	}
}

// TestFilterSoundOnDegenerateLeaves covers the arenas' corner shapes: a
// tree that is one leaf, and leaves whose stored distances are all 0.
func TestFilterSoundOnDegenerateLeaves(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 9))
	oneLeaf := testutil.NewVectorWorkload(rng, 12, 4, 5, metric.L2)
	same := testutil.NewVectorWorkload(rng, 90, 4, 5, metric.L2)
	same.Dist = func(a, b int) float64 { return 0 }
	same.Truth = linear.New(same.Items, metric.NewCounter(same.Dist))
	for name, tc := range map[string]struct {
		w         *testutil.Workload
		opts      Options
		wantSlack bool
	}{
		"one leaf":  {oneLeaf, Options{LeafCapacity: 13, Build: Build{Seed: 3}}, true},
		"all zeros": {same, Options{Partitions: 2, LeafCapacity: 6, PathLength: 3, Build: Build{Seed: 3}}, false},
	} {
		tree, c := buildWorkloadTree(t, tc.w, tc.opts)
		if shape := tree.Shape(); name == "one leaf" && shape.Nodes != 1 || shape.LeafItems == 0 {
			t.Fatalf("%s: %+v", name, shape)
		}
		if (tree.slack != 0) != tc.wantSlack {
			t.Errorf("%s: step %g, slack %g", name, tree.step, tree.slack)
		}
		if err := tree.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		radii := []float64{0, 0.3, 0.9, 4}
		checkAllQueryKinds(t, name, tree, tc.w, radii, []int{1, 5, 100})
		checkAllQueryKinds(t, name+"/loaded", reload(t, tree, c), tc.w, radii, []int{1, 5, 100})
	}
}

// TestIntegerMetricIdenticalToFloat64Leaves replays a fixed word
// workload whose per-query SearchStats and counter deltas were recorded
// at the commit before leaves stopped being float64 (PR 14). Edit
// distances sit on even codes, so slack is 0 and every filter decision,
// tie prune and count is the one a float64 leaf made. The recorded tree
// is the fixture: PR 22's Save of the build PR 14 made of these words
// (m = 3, k = 20, p = 5, seed 9, first vantage points drawn), written
// before the partition step stopped sorting (PR 23) and a build of the
// same options became another draw of the same lottery. A fresh build
// has to cost what that one did and sit on the same grid.
func TestIntegerMetricIdenticalToFloat64Leaves(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(15, 1)), 3000, dataset.WordOptions{MinLen: 4, MaxLen: 11, MisspellingsPer: 3})
	fresh, err := New(words, metric.NewCounter(metric.Edit), Options{Partitions: 3, LeafCapacity: 20, PathLength: 5, RandomFirstVantage: true, Build: Build{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := os.ReadFile("testdata/pr22_words_m3k20p5.mvp")
	if err != nil {
		t.Fatal(err)
	}
	c := metric.NewCounter(metric.Edit)
	tree, err := Load(bytes.NewReader(stream), c, codec.DecodeString)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.slack != 0 || fresh.slack != 0 || fresh.step != tree.step {
		t.Fatalf("slack = %g recorded, %g fresh, over edit distances, want 0; step %g and %g", tree.slack, fresh.slack, tree.step, fresh.step)
	}
	if got, want := fresh.Shape(), tree.Shape(); got != want || fresh.BuildCost() != 21132 {
		t.Errorf("fresh build: %d distances, %+v; the recorded tree 21132, %+v", fresh.BuildCost(), got, want)
	}
	held, generated := tree.Range("", math.Inf(1)), slices.Clone(words)
	slices.Sort(held)
	slices.Sort(generated)
	if !slices.Equal(held, generated) {
		t.Fatalf("the fixture holds %d words, not the %d generated", len(held), len(generated))
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
	if sum != want || total != 601912 {
		t.Errorf("queries %+v, %d distances;\nrecorded %+v, 601912", sum, total, want)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != "3e33aa1598638b108a41ed94412fc2704ce22106e37310b319682bffafabb221" {
		t.Errorf("per-query stats hash %s differs from the recorded one", got)
	}
}

// TestLoadsFloat64LeafStream loads the two kinds of MVPTREE1 stream there
// are — PR 14's, whose leaf distances have all 53 bits, and PR 18's,
// whose are float32 values — PR 19's MVPTREE2, which has the codes but no
// v in its header, and PR 22's MVPTREE3, and holds each to the MVPTREE4
// stream of the same tree: same Save bytes, same step and slack, same
// answers at the same cost. The MVPTREE3 stream is PR 22's Save of its
// build of these items, which until the partition step stopped sorting
// (PR 23) was the build every fixture here recorded; a build now is
// another draw of the same shape. The MVPTREE4 one is that stream loaded
// and saved again (PR 30).
func TestLoadsFloat64LeafStream(t *testing.T) {
	save := func(tr *Tree[[]float64]) []byte {
		var buf bytes.Buffer
		if err := tr.Save(&buf, codec.EncodeVector); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	load := func(stream []byte) *Tree[[]float64] {
		tr, err := Load(bytes.NewReader(stream), metric.NewCounter(metric.L2), codec.DecodeVector)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	want, err := os.ReadFile("testdata/pr30_mvptree4.mvp")
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile("testdata/pr22_mvptree3.mvp")
	if err != nil {
		t.Fatal(err)
	}
	fresh := load(want)
	if fresh.slack != fresh.step {
		t.Errorf("the %s stream: step %g, slack %g", saveMagic, fresh.step, fresh.slack)
	}
	if !bytes.Equal(save(fresh), want) {
		t.Errorf("the %s stream saves differently once loaded", saveMagic)
	}
	items := dataset.UniformVectors(rand.New(rand.NewPCG(15, 3)), 400, 6)
	built, err := New(items, metric.NewCounter(metric.L2), Options{Partitions: 2, LeafCapacity: 7, PathLength: 4, RandomFirstVantage: true, Build: Build{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := built.Shape(), fresh.Shape(); got != want {
		t.Errorf("a build of the items: %+v; the streams' tree %+v", got, want)
	}
	queries := dataset.UniformVectors(rand.New(rand.NewPCG(15, 4)), 40, 6)
	for name, magic := range map[string]string{
		"testdata/pr14_float64_leaves.mvp": loadMagicV1, "testdata/pr18_float32_leaves.mvp": loadMagicV1, "testdata/pr19_mvptree2.mvp": loadMagicV2,
		"testdata/pr22_mvptree3.mvp": loadMagicV3,
	} {
		old, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(old[:16], []byte(magic)) {
			t.Fatalf("%s is not an %s stream", name, magic)
		}
		loaded := load(old)
		v4 := save(loaded)
		if !bytes.Equal(v4, want) {
			t.Errorf("%s: the loaded tree saves differently (%d bytes) from the %s stream of the same tree (%d)", name, len(v4), saveMagic, len(want))
		}
		// Against the MVPTREE3 stream: two bytes a leaf distance for eight,
		// and no PATH length per item; from MVPTREE2 only the header
		// differs, by v's one byte.
		saved := -1
		switch magic {
		case loadMagicV1:
			for _, n := range fresh.nodes {
				if n.isLeaf() {
					saved += int(n.cnt) * (6*(2+int(n.held)) + 1)
				}
			}
		case loadMagicV3:
			saved = 0
		}
		if got := len(old) - len(v3); got < saved-8 || got > saved {
			t.Errorf("%s: %d bytes as %s, %d as %s: want about %d fewer", name, len(old), magic, len(v3), loadMagicV3, saved)
		}
		if p2, p3 := testutil.PayloadOf(old), testutil.PayloadOf(v3); magic == loadMagicV2 {
			i := 0 // v is where the payloads first differ
			for i < len(p2) && p2[i] == p3[i] {
				i++
			}
			if i > 8 || !bytes.Equal(p3[i+1:], p2[i:]) {
				t.Errorf("%s: the %s payload is not the %s one with v in the header", name, loadMagicV3, magic)
			}
		}
		again := load(v4)
		if !bytes.Equal(save(again), v4) {
			t.Errorf("%s: Save → Load → Save is not byte-stable", name)
		}
		for _, tr := range []*Tree[[]float64]{loaded, again} {
			if tr.step != fresh.step || tr.slack != fresh.slack {
				t.Errorf("%s: step %g, slack %g; fresh %g, %g", name, tr.step, tr.slack, fresh.step, fresh.slack)
			}
			for _, q := range queries {
				for _, r := range []float64{0.1, 0.35, 0.7} {
					if got, want := tr.Search(index.RangeQuery(q, r)), fresh.Search(index.RangeQuery(q, r)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Range(r=%g): loaded %+v, fresh %+v", name, r, got.Stats, want.Stats)
					}
				}
				if got, want := tr.Search(index.KNNQuery(q, 9)), fresh.Search(index.KNNQuery(q, 9)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: KNN: loaded %+v, fresh %+v", name, got.Stats, want.Stats)
				}
			}
		}
	}
}

// TestLoadV1OutsideFloat32Range holds Load to the two rules that keep a
// PR 15–18 stream sound where float32 ran out: a distance those versions
// clamped to MaxFloat32 idles the filter, as it did then, and the grid
// never gets finer than float32's denormals, whose odd ones stand for
// distances they only neighbour.
func TestLoadV1OutsideFloat32Range(t *testing.T) {
	v1 := func(d1, d2 float64) []byte {
		return testutil.Seal(loadMagicV1, testutil.Payload(func(w *wire.Writer) {
			for _, n := range []int{2, 4, 0, 3} { // m, k, p, n
				w.Int(n)
			}
			w.Byte(tagLeaf)
			w.Bool(true)
			w.Bool(true)
			for _, id := range []byte{0, 1} {
				w.Bytes([]byte{id, 0, 0})
			}
			w.Int(1)
			w.Bytes([]byte{2, 0, 0})
			w.Float(d1)
			w.Float(d2)
			w.Int(0)
		}))
	}
	for _, tc := range []struct {
		d1, d2, step, slack float64
	}{
		{math.MaxFloat32, 7, 0x1p-13, math.Inf(1)},
		{3 * math.SmallestNonzeroFloat32, 0, 0x1p-148, 0x1p-148},
		{3, 7, 0x1p-13, 0},
	} {
		tree, err := Load(bytes.NewReader(v1(tc.d1, tc.d2)), metric.NewCounter(func(a, b int) float64 { return 0 }), decodeID)
		if err != nil {
			t.Fatal(err)
		}
		if tree.step != tc.step || tree.slack != tc.slack {
			t.Errorf("D1 %g, D2 %g: step %g, slack %g; want %g, %g", tc.d1, tc.d2, tree.step, tree.slack, tc.step, tc.slack)
		}
	}
}

// BenchmarkLeafFilter times the leaf scan's filter alone: every leaf of a
// tree at the paper's options (m=3, k=80) over points on a line, whose
// metric costs next to nothing, is handed to rangeLeaf with windows that
// keep every row (all columns read, every row goes on to the kernel) or
// drop every row at D1 (one column read). ns/row is per leaf item; B/row
// is what a row adds to the filter arena. The words/p=5 rows are a word
// tree at p = 5, whose rows are nibbles, and the same tree after Widen:
// once built, its metric is swapped for one that costs nothing and
// returns 0 (all-pass, at r = 15: every edit distance here is at most 12)
// or 100 (all-fail, at r = 0), so ns/row is the scan's own there too.
func BenchmarkLeafFilter(b *testing.B) {
	const n = 50000
	rng := rand.New(rand.NewPCG(19, 1))
	items := make([]float64, n)
	for i := range items {
		items[i] = rng.Float64()
	}
	line := func(a, b float64) float64 { return math.Abs(a - b) }
	for _, p := range []int{-1, 5} { // -1 asks for no PATH at all
		tree, err := New(items, metric.NewCounter(line), Options{Partitions: 3, LeafCapacity: 80, PathLength: p, Build: Build{Seed: 1}})
		if err != nil {
			b.Fatal(err)
		}
		benchLeafFilter(b, fmt.Sprintf("p=%d/all-pass", tree.p), tree, 0.5, 2, true)
		benchLeafFilter(b, fmt.Sprintf("p=%d/all-fail", tree.p), tree, -5, 0, false) // farther from every vantage point than any stored D1
	}
	words := dataset.Words(rand.New(rand.NewPCG(19, 2)), n, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	for _, width := range []string{"nibbles", "wide"} {
		tree, err := New(words, metric.NewCounter(metric.Edit), Options{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 1}})
		if err != nil {
			b.Fatal(err)
		}
		if width == "wide" {
			tree.Widen()
		} else if tree.nibbles == nil {
			b.Fatal("the word tree's rows are not nibbles")
		}
		for _, mode := range []struct {
			name string
			d, r float64
		}{{"all-pass", 0, 15}, {"all-fail", 100, 0}} {
			tree.dist = metric.NewCounter(func(string, string) float64 { return mode.d })
			benchLeafFilter(b, fmt.Sprintf("words/p=5/%s/%s", width, mode.name), tree, "", mode.r, mode.name == "all-pass")
		}
	}
}

// benchLeafFilter is one row of BenchmarkLeafFilter: every leaf of tree
// through rangeLeaf at (q, r) with the query PATH open, which must keep
// every row (pass) or none.
func benchLeafFilter[T any](b *testing.B, name string, tree *Tree[T], q T, r float64, pass bool) {
	shape := tree.Shape()
	b.Run(name, func(b *testing.B) {
		sc := tree.getScratch(index.SearchOptions{})
		for l := range sc.qlo {
			sc.qlo[l], sc.qhi[l] = 0, idleCode
		}
		var out []T
		var s SearchStats
		for b.Loop() {
			out, s = out[:0], SearchStats{}
			for i, n := range tree.nodes {
				if n.isLeaf() {
					tree.rangeLeaf(int32(i), q, r, r, nil, sc, &out, &s)
				}
			}
		}
		if s.Candidates != shape.LeafItems || (s.Computed == shape.LeafItems) != pass || !pass && s.Computed != 0 {
			b.Fatalf("%d leaf items: %+v", shape.LeafItems, s)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(shape.LeafItems), "ns/row")
		b.ReportMetric(float64(shape.FilterBytes)/float64(shape.LeafItems), "B/row")
	})
}

// checkKNNWindow compares knnWindow with the float predicates it stands
// for at every one of the 65 536 codes: the leaf scan's, which skips a
// code when |d − code·step| ≥ b, and the cascade's, which skips it when
// |d − code·step| − s ≥ b. Both are spelled here as the scans spelled them
// when they decoded the codes.
func checkKNNWindow(t testing.TB, d, s, b, step float64) {
	for _, form := range []struct {
		name string
		s    float64
		skip func(x float64) bool
	}{
		{"leaf", 0, func(x float64) bool { return abs(d-x) >= b }},
		{"cascade", s, func(x float64) bool { return abs(d-x)-s >= b }},
	} {
		lo, hi := knnWindow(d, form.s, b, step)
		for c := range 1 << 16 {
			in := uint16(c) >= lo && uint16(c) <= hi
			if keep := !form.skip(float64(c) * step); in != keep {
				t.Fatalf("%s form, d %v, s %v, b %v, step %v: window [%d, %d] holds code %d is %v, the predicate keeps it %v",
					form.name, d, form.s, b, step, lo, hi, c, in, keep)
			}
		}
	}
}

// TestKNNWindowMatchesPredicate holds knnWindow to the predicates over
// query distances on codes and one ulp either side, far past the grid,
// infinite and NaN; bounds of 0, on and off the grid, +Inf and NaN; and
// the smallest, a middling and the largest step.
func TestKNNWindowMatchesPredicate(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, step := range []float64{math.Ldexp(1, minStepExp), math.Ldexp(1, -5), math.Ldexp(1, maxStepExp)} {
		ds := []float64{-step, 70000 * step, 1e9 * step, inf, -inf, nan}
		for _, c := range []float64{0, 1, 2, 1000, 32767, 65534, 65535} {
			x := c * step
			ds = append(ds, math.Nextafter(x, -inf), x, math.Nextafter(x, inf))
		}
		bs := []float64{0, step, 2.5 * step, 1000 * step, math.Nextafter(1000*step, inf), 70000 * step, inf, nan}
		for _, d := range ds {
			for _, b := range bs {
				checkKNNWindow(t, d, step, b, step)
			}
		}
	}
}

// FuzzKNNWindow is TestKNNWindowMatchesPredicate's check on arbitrary
// query distances, slacks, bounds and steps; a bound is never −Inf.
func FuzzKNNWindow(f *testing.F) {
	f.Add(0.5, 0.0, 0.25, -5)
	f.Add(3.0, 1.0, 1.0, 0)
	f.Add(math.Inf(1), 0.0, math.Inf(1), maxStepExp)
	f.Add(1e300, 1e300, 0.0, maxStepExp)
	f.Add(math.NaN(), 0.0, 1.0, minStepExp)
	f.Fuzz(func(t *testing.T, d, s, b float64, e int) {
		if math.IsInf(b, -1) {
			t.Skip()
		}
		step := math.Ldexp(1, minStepExp+int(uint(e)%uint(maxStepExp-minStepExp+1)))
		checkKNNWindow(t, d, s, b, step)
	})
}
