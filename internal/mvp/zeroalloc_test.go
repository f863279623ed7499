package mvp

import (
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

func uniformItems(seed uint64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	items := make([][]float64, n)
	for i := range items {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = v
	}
	return items
}

// TestSteadyStateQueryAllocations pins the PR's zero-alloc serving claim
// absolutely: once the scratch pool is warm, a range query that returns
// nothing performs zero heap allocations, and a kNN query performs at
// most one — the result slice handed to the caller. (AllocsPerRun runs
// the body once before measuring, which warms the pool.)
func TestSteadyStateQueryAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	eachV(t, Options{Partitions: 3, LeafCapacity: 40, PathLength: 4, Build: Build{Seed: 7}}, checkSteadyStateQueryAllocations)
}

func checkSteadyStateQueryAllocations(t *testing.T, opts Options) {
	items := uniformItems(13, 2000, 8)
	tree, err := New(items, metric.NewCounter(metric.L2), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Far outside [0,1]^8: every point is at distance > 200, so a small
	// radius returns nothing and the result slice is never allocated.
	far := []float64{100, 100, 100, 100, 100, 100, 100, 100}
	near := items[17]

	// Warm the pool and sanity-check the workload shape.
	if got := tree.Range(far, 0.5); len(got) != 0 {
		t.Fatalf("far query returned %d results, want 0", len(got))
	}
	if got := tree.KNN(near, 10); len(got) != 10 {
		t.Fatalf("KNN returned %d results, want 10", len(got))
	}

	if allocs := testing.AllocsPerRun(200, func() { tree.Range(far, 0.5) }); allocs != 0 {
		t.Errorf("empty-result Range allocated %.1f times per query, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { tree.KNN(near, 10) }); allocs > 1 {
		t.Errorf("KNN allocated %.1f times per query, want <= 1 (the result slice)", allocs)
	}
	// Stats variants share the same pooled traversal.
	if allocs := testing.AllocsPerRun(200, func() { tree.RangeWithStats(far, 0.5) }); allocs != 0 {
		t.Errorf("empty-result RangeWithStats allocated %.1f times per query, want 0", allocs)
	}
	// A budgeted query is the same pooled traversal with a counter
	// switched on, so it allocates no more than the exact one.
	budget := index.SearchOptions{Budget: 1 << 40}
	if allocs := testing.AllocsPerRun(200, func() {
		tree.Search(index.Query[[]float64]{Point: far, Radius: 0.5, Opts: budget})
	}); allocs != 0 {
		t.Errorf("budgeted empty-result range Search allocated %.1f times per query, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		tree.Search(index.Query[[]float64]{Point: near, K: 10, Opts: budget})
	}); allocs > 1 {
		t.Errorf("budgeted kNN Search allocated %.1f times per query, want <= 1 (the result slice)", allocs)
	}

	// The same pin over strings under edit distance: the kernels work in
	// registers, stack rows or pooled rows (the 70-byte query crosses
	// the 64-byte word of the bit-parallel kernel), so a word query
	// allocates only its result slice.
	rng := rand.New(rand.NewPCG(13, 64))
	words := dataset.Words(rng, 2000, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	words = append(words, strings.Repeat("lorem ipsum ", 6), strings.Repeat("dolor sit amet ", 5))
	wordTree, err := New(words, metric.NewCounter(metric.Edit), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"0123456789", strings.Repeat("0123456789", 7)} {
		if got := wordTree.Range(q, 1); len(got) != 0 {
			t.Fatalf("Range(%q, 1) returned %d results, want 0", q, len(got))
		}
		if allocs := testing.AllocsPerRun(200, func() { wordTree.Range(q, 1) }); allocs != 0 {
			t.Errorf("empty-result Range(%q, 1) allocated %.1f times per query, want 0", q, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() { wordTree.KNN(q, 10) }); allocs > 1 {
			t.Errorf("KNN(%q, 10) allocated %.1f times per query, want <= 1 (the result slice)", q, allocs)
		}
	}
}

// TestBuildAllocationsConstant pins construction to a number of
// allocations that does not grow with the tree: the tree's arenas, the
// build's scratch and the builder's few objects, each allocated whole —
// no node, no per-node slice of cutoffs or children, no generator, task
// list or closure per node — so ten times the items make not one more.
// The classic vp-tree, a node per point, is the case that shows it. (With
// pointer nodes the paper's options measured 2.4 allocations per node.)
// With two workers the pool's forks, helpers and batches fanned out
// allocate nothing either, however the tasks fall on the goroutines
// (when each fork allocated its cursor, helpers and closures, 35
// allocations at 2 000 items were 399 at 50 000).
func TestBuildAllocationsConstant(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	// A collection makes a couple of allocations of the runtime's own, and
	// the larger build would see more of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const small, large, limit = 2000, 20000, 32
	vectors := uniformItems(21, large, 10)
	words := dataset.Words(rand.New(rand.NewPCG(21, 5)), large, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	for _, opts := range []Options{
		{Vantages: 2, Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 7, Workers: 1}},
		{Vantages: 1, LeafCapacity: -1, PathLength: -1, Build: Build{Seed: 7, Workers: 1}},
		{Vantages: 2, Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 7, Workers: 2}},
		{Vantages: 2, Partitions: 3, LeafCapacity: 80, PathLength: 5, RandomSecondVantage: true, Build: Build{Seed: 7, Workers: 2}},
		{Vantages: 1, LeafCapacity: -1, PathLength: -1, Build: Build{Seed: 7, Workers: 2}},
	} {
		for name, build := range map[string]func(n int){
			"vectors/L2": func(n int) {
				if _, err := New(vectors[:n], metric.NewCounter(metric.L2), opts); err != nil {
					t.Fatal(err)
				}
			},
			"words/Edit": func(n int) {
				if _, err := New(words[:n], metric.NewCounter(metric.Edit), opts); err != nil {
					t.Fatal(err)
				}
			},
		} {
			few := testing.AllocsPerRun(3, func() { build(small) })
			many := testing.AllocsPerRun(3, func() { build(large) })
			t.Logf("%s v=%d workers=%d: %.0f allocations building %d items, %.0f building %d", name, opts.Vantages, opts.Workers, few, small, many, large)
			if few != many || many > limit {
				t.Errorf("%s v=%d workers=%d: %.0f allocations building %d items and %.0f building %d, want the same, and <= %d",
					name, opts.Vantages, opts.Workers, few, small, many, large, limit)
			}
		}
	}
}

// TestIndexBytesPerItem pins what the index adds to the live heap per
// item at the paper's options — the benchmark's mem_bytes_per_item,
// measured the same way — and that Shape accounts for it: one slot of the
// point arena per leaf item and two per node (ItemBytes: a pointer for a
// vector of the one length, 8 bytes, and a pointer and a length byte for a
// short word, 9), per leaf item one filter row of seven codes (D1, D2, five
// PATH entries; FilterBytes), 16-bit over vectors (14 bytes) and nibbles
// in a uint32 over words, whose edit distances a nibble holds exactly (4),
// and the node arenas (NodeBytes). A float64 row alone is 56; pointer
// nodes took the limits to 50 and 42, 16-bit word rows to 32, byte rows to
// 25, nibble rows the words' to 22, the compact leaf items them to 24.5 and
// 15.5 (measured 24.2 and 15.1 on these 20,000 items), and the vantage
// points in the point arena with 20-byte node rows to 23.2 and 14.9
// (measured 22.9 and 14.5).
func TestIndexBytesPerItem(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap sizes are inflated by race-detector instrumentation")
	}
	const n = 20000
	opts := Options{Partitions: 3, LeafCapacity: 80, PathLength: 5, Build: Build{Seed: 7}}
	vectors := uniformItems(21, n, 10)
	words := dataset.Words(rand.New(rand.NewPCG(21, 5)), n, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second empties what sync.Pool kept through the first
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	check := func(name string, limit float64, rowBytes, itemBytes int, build func() (Stats, []int, any)) {
		before := liveHeap()
		shape, allocs, tree := build()
		heap := float64(liveHeap() - before)
		runtime.KeepAlive(tree)
		if want := rowBytes * shape.LeafItems; shape.FilterBytes != want {
			t.Errorf("%s: FilterBytes = %d, want %d (%d per leaf item)", name, shape.FilterBytes, want, rowBytes)
		}
		if want := itemBytes * (shape.LeafItems + 2*shape.Nodes); shape.ItemBytes != want {
			t.Errorf("%s: ItemBytes = %d, want %d (%d per leaf item and per vantage slot)", name, shape.ItemBytes, want, itemBytes)
		}
		// Shape counts the bytes the arenas hold; the heap holds an arena
		// over 32 KiB in whole 8 KiB pages, up to 8 KiB more each, which is
		// over 1 % of a 23 B/item index here. The check allows that rounding
		// of each allocation (arenaAllocs), and the log shows it is the gap.
		pages := func(b int) int {
			if b <= 32<<10 {
				return b
			}
			return (b + 8<<10 - 1) &^ (8<<10 - 1)
		}
		shapeBytes, rounding := float64(shape.ItemBytes+shape.FilterBytes+shape.NodeBytes), 0.0
		for _, b := range allocs {
			rounding += float64(pages(b) - b)
		}
		t.Logf("%s: index adds %.2f B/item to the heap (%.0f bytes); Shape accounts for %.2f (%.0f bytes; %d nodes: %.1f); heap − Shape = %.0f bytes, the arenas' page rounding %.0f",
			name, heap/n, heap, shapeBytes/n, shapeBytes, shape.Nodes, float64(shape.NodeBytes)/n, heap-shapeBytes, rounding)
		if heap/n > limit {
			t.Errorf("%s: index adds %.2f B/item to the heap, want <= %.1f", name, heap/n, limit)
		}
		if math.Abs(heap-shapeBytes-rounding) > 0.02*heap {
			t.Errorf("%s: index adds %.0f bytes to the heap, ItemBytes + FilterBytes + NodeBytes = %.0f and the arenas' page rounding %.0f: want within 2%%", name, heap, shapeBytes, rounding)
		}
	}
	check("vectors/L2", 23.2, 2*(2+5), 8, func() (Stats, []int, any) {
		tree, err := New(vectors, metric.NewCounter(metric.L2), opts)
		if err != nil {
			t.Fatal(err)
		}
		return tree.Shape(), arenaAllocs(tree), tree
	})
	check("words/Edit", 14.9, 4, 9, func() (Stats, []int, any) {
		tree, err := New(words, metric.NewCounter(metric.Edit), opts)
		if err != nil {
			t.Fatal(err)
		}
		return tree.Shape(), arenaAllocs(tree), tree
	})
	// The inputs outlive both measurements, or collecting their slice
	// headers would be credited to the index.
	runtime.KeepAlive(vectors)
	runtime.KeepAlive(words)
}

// arenaAllocs is the size of each allocation t's arenas hold: the point
// arena's pieces, the filter arena and the three node arenas.
func arenaAllocs[T any](t *Tree[T]) []int {
	a := &t.items
	return []int{len(a.plain) * int(unsafe.Sizeof(*new(T))), 8 * len(a.ptrs), len(a.lens), 8 * len(a.block),
		t.filterBytes(), len(t.nodes) * int(unsafe.Sizeof(node{})), 8 * len(t.cuts), 4 * len(t.kids)}
}

// TestSingleVantageLeafFiltering is the regression test for the leaf
// scan's D2-filter guard: a leaf that stores items but has no second
// vantage point (possible via Load; the builder always promotes one)
// must skip the D2 window entirely — d2 is a meaningless zero there —
// and still answer exactly like a linear scan.
func TestSingleVantageLeafFiltering(t *testing.T) {
	pts := uniformItems(29, 24, 6)
	sv1 := pts[0]
	rest := pts[1:]

	// The row's D2 slot holds a value no query could pass, so a scan
	// that consulted it would lose results.
	dist := metric.NewCounter(metric.L2)
	tree := &Tree[[]float64]{dist: dist, size: len(pts), v: 2, m: 2, k: len(rest), p: 0, leafItems: len(rest),
		nodes: []node{{svs: 1, cnt: int32(len(rest))}}}
	tree.items = itemsOf(append(rest[:len(rest):len(rest)], sv1, nil), tree.hole)
	var raw []float64
	for _, it := range rest {
		raw = append(raw, metric.L2(sv1, it), 50)
	}
	tree.encodeLeaves(raw, stepExp(raw))
	tree.sealLeaves()

	q := pts[5]
	for _, r := range []float64{0, 0.3, 0.8, 2.5} {
		var want []float64 // sorted distances of the expected result set
		for _, it := range pts {
			if d := metric.L2(q, it); d <= r {
				want = append(want, d)
			}
		}
		sort.Float64s(want)
		before := dist.Count()
		got, s := tree.RangeWithStats(q, r)
		delta := dist.Count() - before

		gotD := make([]float64, len(got))
		for i, it := range got {
			gotD[i] = metric.L2(q, it)
		}
		sort.Float64s(gotD)
		if len(gotD) != len(want) {
			t.Fatalf("r=%v: got %d results, want %d", r, len(gotD), len(want))
		}
		for i := range want {
			if gotD[i] != want[i] {
				t.Fatalf("r=%v: result distance %v != expected %v", r, gotD[i], want[i])
			}
		}
		if s.VantagePoints != 1 {
			t.Errorf("r=%v: VantagePoints = %d, want 1 (no second vantage point)", r, s.VantagePoints)
		}
		if s.Candidates != len(rest) {
			t.Errorf("r=%v: Candidates = %d, want %d", r, s.Candidates, len(rest))
		}
		if want := int64(s.VantagePoints + s.Computed); delta != want {
			t.Errorf("r=%v: counter delta = %d, want VantagePoints+Computed = %d", r, delta, want)
		}
	}

	// kNN over the same single-vantage leaf must match brute force too.
	for _, k := range []int{1, 5, len(pts)} {
		all := make([]float64, len(pts))
		for i, it := range pts {
			all[i] = metric.L2(q, it)
		}
		sort.Float64s(all)
		got, s := tree.KNNWithStats(q, k)
		if len(got) != min(k, len(pts)) {
			t.Fatalf("k=%d: got %d neighbors, want %d", k, len(got), min(k, len(pts)))
		}
		for i, nb := range got {
			if nb.Dist != all[i] {
				t.Fatalf("k=%d: neighbor %d dist %v, want %v", k, i, nb.Dist, all[i])
			}
		}
		if s.VantagePoints != 1 {
			t.Errorf("k=%d: VantagePoints = %d, want 1", k, s.VantagePoints)
		}
	}
}

// TestFarthestQueryAllocations pins RangeFarther and KFarthest over the
// two narrow arenas. They read a leaf's rows widened into the query
// scratch's one buffer (wideRows), never into one of their own per leaf, and
// keep their query PATHs, KFarthest its heap and queue too, in the pooled
// scratch as kNN does, so a query allocates its result alone: RangeFarther
// what appending its items one by one allocates, KFarthest the sorted
// neighbors. A buffer per leaf made hundreds; a PATH per expanded node and a
// heap per query took them to 16 and 24 on the nibble tree, 12 and 24 on the
// byte tree.
func TestFarthestQueryAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	for _, tc := range []struct {
		name    string
		words   dataset.WordOptions
		nibbles bool
		r       float64
	}{
		{"nibbles", dataset.WordOptions{}, true, 9},
		{"bytes", dataset.WordOptions{MinLen: 16, MaxLen: 30}, false, 27},
	} {
		words := dataset.Words(rand.New(rand.NewPCG(47, 1)), 5000, tc.words)
		tree, err := New(words, metric.NewCounter(metric.Edit), Options{Build: Build{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if (tree.nibbles != nil) != tc.nibbles || !tc.nibbles && tree.narrow == nil {
			t.Fatalf("%s: the tree holds %d nibble rows and %d bytes", tc.name, len(tree.nibbles), len(tree.narrow))
		}
		q := words[0]
		n := len(tree.RangeFarther(q, tc.r))
		if n < 500 {
			t.Fatalf("%s: RangeFarther(q, %g) returned %d items, want hundreds", tc.name, tc.r, n)
		}
		result := testing.AllocsPerRun(50, func() {
			var out []string
			for range n {
				out = append(out, q)
			}
		})
		if allocs := testing.AllocsPerRun(50, func() { tree.RangeFarther(q, tc.r) }); allocs > result {
			t.Errorf("%s: RangeFarther allocated %.1f times per query, want <= %g, its result's", tc.name, allocs, result)
		}
		if allocs := testing.AllocsPerRun(50, func() { tree.KFarthest(q, 10) }); allocs > 1 {
			t.Errorf("%s: KFarthest allocated %.1f times per query, want <= 1", tc.name, allocs)
		}
	}
}
