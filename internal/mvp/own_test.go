package mvp

import (
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
	"mvptree/internal/testutil"
)

// TestOwnChangesNothing checks Own (items.go): a vector tree packed into
// a block of its own answers, counts, reports, lists, removes and writes
// exactly what its unpacked twin over copies of the same vectors does
// (checkAlike, which arms the cascade and SQ8 after the pack), at v = 1
// and 2, with leaves of one point among them; and it keeps answering so
// once every vector its caller handed it is written over, or dropped and
// collected. Own packs nothing else.
func TestOwnChangesNothing(t *testing.T) {
	const n, dim = 900, 6
	queries := uniformItems(50, 4, dim)
	for _, opts := range twinShapes() {
		name := fmt.Sprintf("v=%d k=%d", opts.Vantages, opts.LeafCapacity)
		build := func(items [][]float64) *Tree[[]float64] {
			tree, err := New(items, metric.NewCounter(metric.L2), opts)
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}
		// The twin's vectors are copies, so writing over the caller's below
		// leaves it intact.
		vectors := flatVectors(49, n, dim, 0)
		copies := flatVectors(49, n, dim, 0)
		reqs := twinRequests(append(slices.Clone(queries), copies[3], copies[444]), []float64{0, 0.2, 0.5}, []int{1, 9, 60})
		owned, twin := build(vectors), build(copies)
		want := owned.Shape()
		if first, again := owned.Own(), owned.Own(); !first || again {
			t.Fatalf("%s: Own packed a vector tree: %v, and packed it again: %v", name, first, again)
		}
		checkHoles(t, name, owned)
		want.OwnedBytes = 8 * dim * (slots(owned) - holes(owned))
		if shape := owned.Shape(); shape != want {
			t.Fatalf("%s: packed, the shape is %+v, want %+v", name, shape, want)
		}
		// Nothing the tree holds or returns is the caller's, and nothing it
		// returns can be appended to over a neighbour.
		for i := range vectors[0] {
			for _, v := range vectors {
				v[i] = -1
			}
		}
		for _, it := range owned.Items() {
			if len(it) != dim || cap(it) != dim || it[0] == -1 {
				t.Fatalf("%s: an item of length %d and capacity %d, first coordinate %g", name, len(it), cap(it), it[0])
			}
		}
		removals := [][]float64{copies[7], copies[8], queries[0], copies[n-1]}
		checkAlike(t, name, codec.EncodeVector, reqs, removals, owned, twin)
	}

	// Dropped and collected: the caller's vectors are made inside pack, so
	// the tree's block is what keeps the points once it returns.
	for _, opts := range twinShapes() {
		pack := func() *Tree[[]float64] {
			tree, err := New(flatVectors(49, n, dim, 0), metric.NewCounter(metric.L2), opts)
			if err != nil {
				t.Fatal(err)
			}
			tree.Own()
			return tree
		}
		owned := pack()
		runtime.GC()
		runtime.GC()
		junk := flatVectors(7, 2*n, dim, 0)
		twin, err := New(flatVectors(49, n, dim, 0), metric.NewCounter(metric.L2), opts)
		if err != nil {
			t.Fatal(err)
		}
		reqs := twinRequests(queries, []float64{0.2, 0.5}, []int{1, 9})
		if err := wideDiff(owned, twin, reqs); err != nil {
			t.Fatalf("v=%d k=%d, collected: %v", opts.Vantages, opts.LeafCapacity, err)
		}
		runtime.KeepAlive(junk)
	}

	// Own packs vector trees of one length alone.
	words, err := New(dataset.Words(rand.New(rand.NewPCG(1, 1)), 300, dataset.WordOptions{}), metric.NewCounter(metric.Edit), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ints, err := New(testutil.IDs(300), metric.NewCounter(func(a, b int) float64 { return float64(max(a-b, b-a)) }), Options{})
	if err != nil {
		t.Fatal(err)
	}
	spare, err := New(flatVectors(3, 300, 4, 1), metric.NewCounter(metric.L2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := New(nil, metric.NewCounter(metric.L2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if words.Own() || ints.Own() || spare.Own() || empty.Own() {
		t.Fatal("Own packed a tree of words, of ints, of vectors with spare capacity or an empty tree")
	}
	if words.items.layout != stringLayout || ints.items.layout != plainLayout || spare.items.layout != plainLayout {
		t.Fatalf("Own moved a tree it did not pack: layouts %d, %d, %d", words.items.layout, ints.items.layout, spare.items.layout)
	}
}

// TestOwnAfterCascade checks that Own copies the cascade's pivots too, when
// the cascade was armed first: the tree keeps answering as its twin once
// the caller's vectors are written over.
func TestOwnAfterCascade(t *testing.T) {
	const n, dim = 900, 6
	vectors, copies := flatVectors(49, n, dim, 0), flatVectors(49, n, dim, 0)
	var trees [2]*Tree[[]float64]
	for i, items := range [][][]float64{vectors, copies} {
		tree, err := New(items, metric.NewCounter(metric.L2), Options{Partitions: 3, LeafCapacity: 20, Build: Build{Seed: 5}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.EnableCascade(cascade.Options{Pivots: 3}); err != nil {
			t.Fatal(err)
		}
		trees[i] = tree
	}
	if !trees[0].Own() {
		t.Fatal("Own did not pack an armed vector tree")
	}
	for _, v := range vectors {
		clear(v)
	}
	if err := wideDiff(trees[0], trees[1], twinRequests(uniformItems(51, 4, dim), []float64{0.2, 0.5}, []int{1, 9})); err != nil {
		t.Fatal(err)
	}
}

// TestCloneBesideQueries checks Clone: the copy answers as the tree does,
// armed and holding a tombstone, and packing the copy (Own) beside queries
// on the tree changes none of the tree's answers and writes nothing the
// tree reads (go test -race), after which the copy still answers alike.
func TestCloneBesideQueries(t *testing.T) {
	var names []string
	for f := range reflect.TypeFor[Tree[int]]().NumField() {
		names = append(names, reflect.TypeFor[Tree[int]]().Field(f).Name)
	}
	const fields = "Hooks dist size v m k p height nodes cuts kids items leafItems filter narrow nibbles shift step slack buildStats scratch bscratch cpivots ccodes cstep cslack qset qcodes dead tombs"
	if got := strings.Join(names, " "); got != fields {
		t.Fatalf("Tree's fields are %q, were %q: Clone copies every one but the scratch pools", got, fields)
	}
	const n, dim = 900, 6
	vectors := flatVectors(49, n, dim, 0)
	tree, err := New(vectors, metric.NewCounter(metric.L2), Options{Partitions: 3, LeafCapacity: 20, Build: Build{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.EnableCascade(cascade.Options{Pivots: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tree.EnableQuantize(quant.SQ8); err != nil {
		t.Fatal(err)
	}
	if Remove(tree, vectors[7]) != 1 {
		t.Fatal("Remove did not tombstone an item of the tree")
	}
	reqs := twinRequests(append(uniformItems(50, 3, dim), vectors[7], vectors[8]), []float64{0, 0.3}, []int{1, 9})
	want := make([]index.Result[[]float64], len(reqs))
	for i, req := range reqs {
		want[i] = tree.Search(req)
	}
	c := tree.Clone()
	if c.Shape() != tree.Shape() {
		t.Fatalf("the clone's shape %+v, the tree's %+v", c.Shape(), tree.Shape())
	}
	if err := wideDiff(c, tree, reqs); err != nil {
		t.Fatal(err)
	}
	done := make(chan bool)
	go func() { done <- c.Own() }()
	for i, req := range reqs {
		if got := tree.Search(req); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%+v beside the clone's Own: %+v, want %+v", req, got, want[i])
		}
	}
	if !<-done {
		t.Fatal("Own did not pack the clone")
	}
	if tree.items.block != nil || c.items.block == nil || &tree.items.ptrs[0] == &c.items.ptrs[0] {
		t.Fatal("Own on the clone moved the tree's point arena, or left the clone's unpacked")
	}
	if err := wideDiff(c, tree, reqs); err != nil {
		t.Fatal(err)
	}
}
