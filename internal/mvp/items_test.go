package mvp

// Tests of the point arena (items.go): vectors of one length and short
// strings, leaf items and vantage points alike, are held as a pointer a
// point, with a length byte for strings, and nothing a tree answers,
// counts, reports or writes differs from the same tree holding the points
// as the []T they were given.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/quant"
)

// checkCompact checks compact, a tree whose points the rule holds in
// layout, against plain, the same tree holding them as a []T (checkAlike).
// A tree Load gives back from compact's bytes holds its points as compact
// does and has its Shape.
func checkCompact[T any](t *testing.T, name string, layout itemLayout, enc ItemEncoder[T], dec ItemDecoder[T], reqs []index.Query[T], removals []T, compact, plain *Tree[T]) {
	t.Helper()
	if compact.Len() == 0 {
		layout = plainLayout
	}
	if compact.items.layout != layout || plain.items.layout != plainLayout {
		t.Fatalf("%s: the trees hold their points in layouts %d and %d, want %d and %d", name, compact.items.layout, plain.items.layout, layout, plainLayout)
	}
	var buf bytes.Buffer
	if err := compact.Save(&buf, enc); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, compact.dist, dec)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.items.layout != compact.items.layout || loaded.Shape() != compact.Shape() {
		t.Fatalf("%s: loaded, the tree holds its points in layout %d, shape %+v; built, %d, %+v", name, loaded.items.layout, loaded.Shape(), compact.items.layout, compact.Shape())
	}
	checkAlike(t, name, enc, reqs, removals, compact, plain)
}

// checkAlike checks a against b, the same tree holding its points
// another way: they write the same Save bytes, answer reqs alike
// (wideDiff: Search, SearchBatch, RangeFarther, KFarthest, with their
// SearchStats and counter deltas), unarmed and with the cascade and SQ8
// armed at the same cost, list the same Items, and tombstone the same
// items at the same cost when each of removals is Removed, after which
// they still answer alike. Their Shapes differ in the point arena's bytes
// alone.
func checkAlike[T any](t *testing.T, name string, enc ItemEncoder[T], reqs []index.Query[T], removals []T, a, b *Tree[T]) {
	t.Helper()
	var sa, sb bytes.Buffer
	if err := a.Save(&sa, enc); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&sb, enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatalf("%s: the twins' Save bytes differ", name)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := wideDiff(a, b, reqs); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	arm := func(tr *Tree[T]) int64 {
		before := tr.dist.Count()
		if err := tr.EnableCascade(cascade.Options{Pivots: 3}); err != nil {
			t.Fatal(err)
		}
		if err := tr.EnableQuantize(quant.SQ8); err != nil {
			t.Fatal(err)
		}
		return tr.dist.Count() - before
	}
	if da, db := arm(a), arm(b); da != db || a.Shape() != sameItemBytes(b.Shape(), a.Shape()) {
		t.Fatalf("%s: arming cost %d and %d distances; shapes %+v and %+v", name, da, db, a.Shape(), b.Shape())
	}
	if err := wideDiff(a, b, reqs); err != nil {
		t.Fatalf("%s, armed: %v", name, err)
	}
	sameItems := func(when string) {
		t.Helper()
		if x, y := a.Items(), b.Items(); !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: Items %s differ: %v and %v", name, when, x, y)
		}
	}
	sameItems("before Remove")
	for _, q := range removals {
		before := [2]int64{a.dist.Count(), b.dist.Count()}
		na, nb := Remove(a, q), Remove(b, q)
		if da, db := a.dist.Count()-before[0], b.dist.Count()-before[1]; na != nb || da != db {
			t.Fatalf("%s: Remove(%v) tombstoned %d and %d items at %d and %d distances", name, q, na, nb, da, db)
		}
	}
	sameItems("after Remove")
	if err := wideDiff(a, b, reqs); err != nil {
		t.Fatalf("%s, after Remove: %v", name, err)
	}
}

// sameItemBytes is the Shape of b with a's point arena bytes, ItemBytes
// and OwnedBytes: everything else about two twins is the same.
func sameItemBytes(b, a Stats) Stats {
	b.ItemBytes, b.OwnedBytes = a.ItemBytes, a.OwnedBytes
	return b
}

// flatVectors returns n vectors of dimension dim in one backing array, as
// dataset.UniformVectors lays them out: each with cap == len when spare is
// 0, else with spare more floats of capacity, the next vector's.
func flatVectors(seed uint64, n, dim, spare int) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 3))
	flat := make([]float64, n*dim+spare)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim+spare]
	}
	return out
}

// twinShapes is the options the twin tests build at: v = 1 and 2, at the
// paper's leaves and at leaves of at most two items, where a shell of one
// point makes a leaf of one point, whose second vantage slot is empty.
func twinShapes() []Options {
	var shapes []Options
	for _, v := range []int{1, 2} {
		for _, k := range []int{20, 2} {
			shapes = append(shapes, Options{Vantages: v, Partitions: 3, LeafCapacity: k, PathLength: 5, Build: Build{Seed: 5}})
		}
	}
	return shapes
}

// checkHoles fails a tree of two vantage points a node at leaves of two
// items that has no empty vantage slot to test.
func checkHoles[T any](t *testing.T, name string, tree *Tree[T]) {
	t.Helper()
	if tree.v == 2 && tree.k == 2 && holes(tree) == 0 {
		t.Fatalf("%s: no leaf of one point, whose second vantage slot is empty", name)
	}
}

func TestCompactItemsChangeNothing(t *testing.T) {
	t.Run("vectors", func(t *testing.T) {
		// The twin's vectors are the same memory re-sliced one float wider:
		// cap > len takes the plain layout through the rule itself.
		const n, dim = 900, 6
		vectors, wider := flatVectors(49, n, dim, 0), flatVectors(49, n, dim, 1)
		queries := append(uniformItems(50, 4, dim), vectors[3], vectors[444])
		reqs := twinRequests(queries, []float64{0, 0.2, 0.5}, []int{1, 9, 60})
		for _, opts := range twinShapes() {
			name := fmt.Sprintf("vectors v=%d k=%d", opts.Vantages, opts.LeafCapacity)
			build := func(items [][]float64) *Tree[[]float64] {
				tree, err := New(items, metric.NewCounter(metric.L2), opts)
				if err != nil {
					t.Fatal(err)
				}
				return tree
			}
			compact, plain := build(vectors), build(wider)
			if got, want := compact.Shape().ItemBytes, 8*slots(compact); got != want {
				t.Fatalf("%s: ItemBytes %d, want a pointer a slot, %d", name, got, want)
			}
			checkHoles(t, name, compact)
			// Every point is the caller's header: its data pointer, length
			// and capacity.
			for _, it := range compact.Items() {
				i := slices.IndexFunc(vectors, func(x []float64) bool { return &x[0] == &it[0] })
				if i < 0 || len(it) != dim || cap(it) != dim {
					t.Fatalf("%s: an item of length %d and capacity %d is no vector the tree was given", name, len(it), cap(it))
				}
			}
			removals := [][]float64{vectors[7], vectors[8], queries[0], vectors[n-1]}
			checkCompact(t, name, vectorLayout, codec.EncodeVector, codec.DecodeVector, reqs, removals, compact, plain)
		}
	})
	t.Run("words", func(t *testing.T) {
		words := dataset.Words(rand.New(rand.NewPCG(49, 2)), 700, dataset.WordOptions{MinLen: 3, MaxLen: 10, MisspellingsPer: 3})
		words = append(words, "", "", strings.Repeat("q", maxShortString))
		queries := []string{"", words[3], words[250], words[699] + "x", "arbitrary"}
		reqs := twinRequests(queries, []float64{0, 1, 2}, []int{1, 7, 40})
		for _, opts := range twinShapes() {
			name := fmt.Sprintf("words v=%d k=%d", opts.Vantages, opts.LeafCapacity)
			build := func() *Tree[string] {
				tree, err := New(words, metric.NewCounter(metric.Edit), opts)
				if err != nil {
					t.Fatal(err)
				}
				return tree
			}
			compact, plain := build(), build()
			plain.plainItems()
			if got, want := compact.Shape().ItemBytes, 9*slots(compact); got != want {
				t.Fatalf("%s: ItemBytes %d, want a pointer and a byte a slot, %d", name, got, want)
			}
			checkHoles(t, name, compact)
			removals := []string{words[10], "", words[400], "absent"}
			checkCompact(t, name, stringLayout, codec.EncodeString, codec.DecodeString, reqs, removals, compact, plain)
		}
	})
}

// slots is the number of t's point arena slots: one a leaf item, v a node.
func slots[T any](t *Tree[T]) int { return t.leafItems + t.v*len(t.nodes) }

// holes is the number of t's empty vantage slots, one a leaf of a single
// point in a tree of two vantage points a node.
func holes[T any](t *Tree[T]) int {
	n := 0
	for i := range t.items.len() {
		if t.hole(i) {
			n++
		}
	}
	return n
}

// TestItemLayoutRule pins which points the rule holds compact: vectors of
// one length ≥ 1 without spare capacity, strings of at most 255 bytes,
// empty ones among them, which keep no pointer; nothing else. It ignores
// the empty vantage slots (hole), which keep no pointer either.
func TestItemLayoutRule(t *testing.T) {
	long := strings.Repeat("x", maxShortString)
	for _, tc := range []struct {
		name  string
		items any
		want  itemLayout
		holes []int
	}{
		{"vectors", flatVectors(1, 5, 3, 0), vectorLayout, nil},
		{"spare capacity", flatVectors(1, 5, 3, 1), plainLayout, nil},
		{"mixed lengths", [][]float64{{1, 2}, {1, 2, 3}}, plainLayout, nil},
		{"empty vectors", [][]float64{{}, {}}, plainLayout, nil},
		{"no vectors", [][]float64{}, plainLayout, nil},
		{"named vectors", []vec{{1}, {2}}, plainLayout, nil},
		{"words", []string{"", "a", long}, stringLayout, nil},
		{"empty words", []string{"", ""}, stringLayout, nil},
		{"a 256-byte word", []string{"a", long + "x"}, plainLayout, nil},
		{"no words", []string{}, plainLayout, nil},
		{"ints", []int{1, 2}, plainLayout, nil},
		{"vectors and empty slots", [][]float64{{1, 2}, nil, {3, 4}, nil}, vectorLayout, []int{1, 3}},
		{"an empty vector in no empty slot", [][]float64{{1, 2}, nil}, plainLayout, nil},
		{"nothing but empty slots", [][]float64{nil}, plainLayout, []int{0}},
		{"words and empty slots", []string{"a", "", "b"}, stringLayout, []int{1}},
		{"a 256-byte word in an empty slot's place", []string{"a", long + "x"}, plainLayout, []int{0}},
	} {
		hole := func(i int) bool { return slices.Contains(tc.holes, i) }
		var got itemLayout
		switch xs := tc.items.(type) {
		case [][]float64:
			got, _ = layoutOf(xs, hole)
			if a := itemsOf(xs, hole); got == vectorLayout {
				for i, x := range xs {
					if hole(i) != (a.ptrs[i] == nil) || !hole(i) && !slices.Equal(a.at(i), x) {
						t.Errorf("%s: slot %d holds pointer %p, want %v", tc.name, i, a.ptrs[i], x)
					}
				}
			}
		case []vec:
			got, _ = layoutOf(xs, nil)
		case []string:
			got, _ = layoutOf(xs, hole)
			if a := itemsOf(xs, hole); got == stringLayout {
				for i, x := range xs {
					if a.at(i) != x || (x == "") != (a.ptrs[i] == nil) {
						t.Errorf("%s: slot %d holds %q (pointer %p), want %q", tc.name, i, a.at(i), a.ptrs[i], x)
					}
				}
			}
		case []int:
			got, _ = layoutOf(xs, nil)
		}
		if got != tc.want {
			t.Errorf("%s: layout %d, want %d", tc.name, got, tc.want)
		}
	}

	// In a tree the rule reads the leaf items: a 256-byte word among them
	// keeps every word plain, and queries still find the empty words and
	// the long ones.
	words := dataset.Words(rand.New(rand.NewPCG(3, 4)), 300, dataset.WordOptions{})
	for _, extra := range []string{"", long, long + "x"} {
		items := append(slices.Clone(words), slices.Repeat([]string{extra}, 40)...)
		tree, err := New(items, metric.NewCounter(metric.Edit), Options{LeafCapacity: 20, Build: Build{Seed: 2}})
		if err != nil {
			t.Fatal(err)
		}
		want := stringLayout
		if len(extra) > maxShortString {
			want = plainLayout
		}
		if tree.items.layout != want {
			t.Errorf("words and %d-byte words: layout %d, want %d", len(extra), tree.items.layout, want)
		}
		if got := tree.Range(extra, 0); len(got) != 40 || slices.ContainsFunc(got, func(x string) bool { return x != extra }) {
			t.Errorf("Range of a %d-byte word at 0 found %d items, want its 40 copies", len(extra), len(got))
		}
	}
	// A 256-byte word among short ones is the point farthest from each of
	// them, so the root's second vantage point, or its first: the rule
	// reads the vantage points too, and keeps every point plain.
	far := long + "x"
	wt, err := New(append(slices.Clone(words), far), metric.NewCounter(metric.Edit), Options{LeafCapacity: 20, Build: Build{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(RootPoints(wt), far) || wt.items.layout != plainLayout {
		t.Errorf("a 256-byte word: root points %q, layout %d; want the word among them, and plain", RootPoints(wt), wt.items.layout)
	}
	if got := wt.Range(far, 0); len(got) != 1 || got[0] != far {
		t.Errorf("Range of the 256-byte vantage point at 0 found %q", got)
	}

	// Vectors of two lengths, under a metric that measures them (L2 over
	// the shorter length, plus the difference), keep the plain layout.
	mixed := append(flatVectors(5, 200, 4, 0), flatVectors(6, 200, 5, 0)...)
	ragged := func(a, b []float64) float64 {
		n := min(len(a), len(b))
		return metric.L2(a[:n], b[:n]) + float64(max(len(a), len(b))-n)
	}
	tree, err := New(mixed, metric.NewCounter(ragged), Options{LeafCapacity: 20, Build: Build{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if tree.items.layout != plainLayout {
		t.Errorf("vectors of two lengths: layout %d, want plain", tree.items.layout)
	}
	if got := tree.Range(mixed[250], 0); len(got) != 1 || !slices.Equal(got[0], mixed[250]) {
		t.Errorf("vectors of two lengths: Range at 0 found %v, want the query", got)
	}
}

// vec is a named vector type: the rule does not hold it compact.
type vec []float64

// TestCompactItemsLive checks that the compact arena keeps its items
// alive: with every reference the caller held dropped and the collector
// run, and the freed memory of the right sizes taken again and written
// over, the tree still answers as a scan of a copy kept apart.
func TestCompactItemsLive(t *testing.T) {
	const n, dim = 3000, 5
	// The items are made inside build, so the tree's arena is what keeps
	// them reachable once it returns.
	build := func() (*Tree[[]float64], *Tree[string], [][]float64, []string) {
		vectors := uniformItems(61, n, dim)
		words := dataset.Words(rand.New(rand.NewPCG(61, 1)), n, dataset.WordOptions{})
		for i := range words {
			words[i] = string([]byte(words[i])) // each in an allocation of its own
		}
		vt, err := New(vectors, metric.NewCounter(metric.L2), Options{LeafCapacity: 30, Build: Build{Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		wt, err := New(words, metric.NewCounter(metric.Edit), Options{LeafCapacity: 30, Build: Build{Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		vcopy := make([][]float64, n)
		for i, v := range vectors {
			vcopy[i] = slices.Clone(v)
		}
		wcopy := make([]string, n)
		for i, w := range words {
			wcopy[i] = strings.Clone(w)
		}
		return vt, wt, vcopy, wcopy
	}
	vt, wt, vcopy, wcopy := build()
	if vt.items.layout != vectorLayout || wt.items.layout != stringLayout {
		t.Fatalf("layouts %d and %d, want compact", vt.items.layout, wt.items.layout)
	}
	runtime.GC()
	runtime.GC()
	// Take back what a lost item would have freed, and write over it.
	var junk [][]float64
	var junkWords []string
	for range 2 * n {
		v := make([]float64, dim)
		for j := range v {
			v[j] = -7
		}
		junk = append(junk, v)
		junkWords = append(junkWords, strings.Repeat("#", 1+len(junk)%12))
	}
	sortedVectors := func(xs [][]float64) [][]float64 {
		xs = slices.Clone(xs)
		slices.SortFunc(xs, slices.Compare[[]float64])
		return xs
	}
	for _, q := range append(uniformItems(62, 5, dim), vcopy[0], vcopy[n/2]) {
		for _, r := range []float64{0, 0.3, 0.6} {
			var want [][]float64
			for _, v := range vcopy {
				if metric.L2(q, v) <= r {
					want = append(want, v)
				}
			}
			if got := sortedVectors(vt.Range(q, r)); !reflect.DeepEqual(got, sortedVectors(want)) {
				t.Fatalf("vectors: Range(r=%g) found %d items, a scan of the copy %d", r, len(got), len(want))
			}
		}
	}
	for _, q := range []string{wcopy[0], wcopy[n/2], "qwerty"} {
		for _, r := range []float64{0, 1, 2} {
			var want []string
			for _, w := range wcopy {
				if metric.Edit(q, w) <= r {
					want = append(want, w)
				}
			}
			got := wt.Range(q, r)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("words: Range(%q, %g) found %v, a scan of the copy %v", q, r, got, want)
			}
		}
	}
	if all := vt.Items(); len(all) != n || !reflect.DeepEqual(sortedVectors(all), sortedVectors(vcopy)) {
		t.Fatalf("vectors: Items differ from the copy")
	}
	runtime.KeepAlive(junk)
	runtime.KeepAlive(junkWords)
}

// plainItems holds t's points as the []T they were given, whatever the
// rule gives them, an empty slot as the zero T: the twin the compact
// layouts are tested against, as Widen's tree is the narrow arenas'.
func (t *Tree[T]) plainItems() {
	xs := make([]T, t.items.len())
	for i := range xs {
		if !t.hole(i) {
			xs[i] = t.items.at(i)
		}
	}
	t.items = itemArena[T]{plain: xs}
}
