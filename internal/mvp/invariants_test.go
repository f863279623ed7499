package mvp

// White-box structural invariant checks: the stored cutoffs, D1/D2
// arrays and PATH prefixes must all agree with freshly recomputed
// distances, for every node of trees built over varied workloads.

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

// checkNode recursively verifies the invariants of the subtree of node i.
// ancestors holds the vantage points of the nodes above, in PATH order
// (sv1 then sv2 per level); raw is the uncounted distance function.
func checkNode(t *testing.T, tr *Tree[int], i int32, raw metric.DistanceFunc[int], ancestors []int) {
	t.Helper()
	n, sv := &tr.nodes[i], tr.vantages(i)
	if n.isLeaf() {
		// Stored precision: the leaf holds the code of each distance, on
		// the tree's grid once a narrow arena's byte or nibble is widened.
		items, stride := tr.items.first(tr.leafItems)[n.off:][:n.cnt], 2+int(n.held)
		if want := min(tr.p, len(ancestors)); len(items) > 0 && stride-2 != want {
			t.Fatalf("leaf PATH length %d, want %d (p=%d, %d ancestors)", stride-2, want, tr.p, len(ancestors))
		}
		if len(items) > 0 && int(n.svs) != tr.v {
			t.Fatalf("leaf of %d items in a tree of %d vantage points has %d", len(items), tr.v, n.svs)
		}
		var buf []uint16
		rows, _ := tr.wideRows(n, &buf)
		for i, it := range items {
			row := rows[i*stride:][:stride]
			if got := raw(it, sv[0]); encode(got, tr.step) != row[0] {
				t.Fatalf("leaf D1[%d] = %g, recomputed %g", i, tr.decode(row[0]), got)
			}
			if tr.v == 2 {
				if got := raw(it, sv[1]); encode(got, tr.step) != row[1] {
					t.Fatalf("leaf D2[%d] = %g, recomputed %g", i, tr.decode(row[1]), got)
				}
			} else if row[1] != 0 {
				t.Fatalf("leaf row %d of a one-vantage tree has %d in the D2 slot it does not use", i, row[1])
			}
			for l, stored := range row[2:] {
				if got := raw(it, ancestors[l]); encode(got, tr.step) != stored {
					t.Fatalf("leaf PATH[%d] = %g, recomputed %g", l, tr.decode(stored), got)
				}
			}
		}
		return
	}

	if int(n.svs) != tr.v {
		t.Fatalf("internal node in a tree of %d vantage points has %d", tr.v, n.svs)
	}
	next := append(append([]int(nil), ancestors...), sv...)
	cut1, _, sh := tr.inner(n)
	for g := 0; g <= len(cut1); g++ {
		row, cut2 := sh.next()
		if tr.v == 1 && (len(row) != 1 || len(cut2) != 0) {
			t.Fatalf("shell %d of a one-vantage node has %d children and %d cutoffs", g, len(row), len(cut2))
		}
		lo1, hi1 := shellBounds(cut1, g)
		for h, c := range row {
			if c == noChild {
				continue
			}
			lo2, hi2 := shellBounds(cut2, h)
			var points []int
			tr.collectAll(c, &points)
			for _, pt := range points {
				d1 := raw(pt, sv[0])
				if d1 < lo1 || d1 > hi1 {
					t.Fatalf("point %d in shell %d has d1 = %g outside [%g, %g]", pt, g, d1, lo1, hi1)
				}
				if tr.v == 1 {
					continue
				}
				if d2 := raw(pt, sv[1]); d2 < lo2 || d2 > hi2 {
					t.Fatalf("point %d in sub-shell (%d,%d) has d2 = %g outside [%g, %g]", pt, g, h, d2, lo2, hi2)
				}
			}
			checkNode(t, tr, c, raw, next)
		}
	}
}

// checkArenasTiled verifies that the nodes, in order, tile the tree's
// arenas exactly — what construction's load promises before any node
// exists: the leaves the item and filter arenas (checkShape), the internal
// nodes the cutoff and child arenas.
func checkArenasTiled[T any](t *testing.T, tr *Tree[T]) {
	t.Helper()
	if _, err := tr.checkShape(); err != nil {
		t.Fatal(err)
	}
	cuts, kids := 0, 0
	for i := range tr.nodes {
		n := &tr.nodes[i]
		if n.isLeaf() {
			continue
		}
		if int(n.off) != cuts || int(n.foff) != kids {
			t.Fatalf("internal node at cuts[%d], kids[%d]; the nodes before it end at %d, %d", n.off, n.foff, cuts, kids)
		}
		cut1, _, sh := tr.inner(n)
		cuts, kids = cuts+tr.v+len(cut1), kids+(tr.v-1)*(len(cut1)+1)
		for range len(cut1) + 1 {
			row, cut2 := sh.next()
			cuts, kids = cuts+len(cut2), kids+len(row)
		}
	}
	if cuts != len(tr.cuts) || kids != len(tr.kids) {
		t.Fatalf("internal nodes hold %d cutoffs and %d child slots, arenas %d and %d", cuts, kids, len(tr.cuts), len(tr.kids))
	}
}

// TestLeavesTileTheArenas sweeps every size through the shapes where
// rank arithmetic is delicate (shells of one point, leaves of none).
func TestLeavesTileTheArenas(t *testing.T) {
	dist := func(a, b int) float64 { return float64(abs(float64(a*7919%1013 - b*7919%1013))) }
	for _, m := range []int{2, 3, 5} {
		for _, k := range []int{-1, 1, 2, 7, 30} {
			for n := 0; n <= 220; n++ {
				// v = 2 with the second vantage point farthest and drawn, then v = 1.
				for i, v := range []int{2, 2, 1} {
					tree, err := New(testutil.IDs(n), metric.NewCounter(dist),
						Options{Vantages: v, Partitions: m, LeafCapacity: k, PathLength: 3, RandomSecondVantage: i == 1, Build: Build{Seed: uint64(n), Workers: 1 + n%3}})
					if err != nil {
						t.Fatal(err)
					}
					checkArenasTiled(t, tree)
					if err := tree.Validate(); err != nil {
						t.Fatalf("v=%d m=%d k=%d n=%d: %v", v, m, k, n, err)
					}
				}
			}
		}
	}
}

func TestStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	workloads := map[string]*testutil.Workload{
		"uniform": testutil.NewVectorWorkload(rng, 600, 8, 1, metric.L2),
		"clumped": testutil.NewClumpedWorkload(rng, 600, 5, 1, metric.L2),
		"l1":      testutil.NewVectorWorkload(rng, 300, 12, 1, metric.L1),
	}
	for name, w := range workloads {
		for _, opts := range optionMatrix {
			c := metric.NewCounter(w.Dist)
			tree, err := New(w.Items, c, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkNode(t, tree, 0, w.Dist, nil)
			checkArenasTiled(t, tree)
		}
	}
}

func TestSecondVantageIsFarthestInLeaf(t *testing.T) {
	// §4.2: in leaves the second vantage point is the farthest point
	// from the first. Build a pure-leaf tree and check directly.
	data := [][]float64{{0}, {1}, {2}, {3}, {10}}
	ids := testutil.IDs(len(data))
	dist := testutil.IDDistance(data, metric.L2)
	c := metric.NewCounter(dist)
	tree, err := New(ids, c, Options{Partitions: 2, LeafCapacity: 10, PathLength: 2, Build: Build{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	n, sv := &tree.nodes[0], tree.vantages(0)
	if !n.isLeaf() {
		t.Fatal("expected a single leaf")
	}
	// Whatever sv1 is, sv2 must maximize distance from it.
	want := 0.0
	for _, id := range ids {
		if d := dist(id, sv[0]); d > want {
			want = d
		}
	}
	if got := dist(sv[1], sv[0]); got != want {
		t.Errorf("sv2 at distance %g from sv1, farthest is %g", got, want)
	}
}

func TestInternalSecondVantageFromOutermostShell(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	w := testutil.NewVectorWorkload(rng, 500, 6, 1, metric.L2)
	c := metric.NewCounter(w.Dist)
	tree, err := New(w.Items, c, Options{Partitions: 3, LeafCapacity: 5, PathLength: 4, Build: Build{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	n, sv := &tree.nodes[0], tree.vantages(0)
	if n.isLeaf() {
		t.Fatal("root unexpectedly a leaf")
	}
	// sv2 must lie in the outermost shell of sv1's partition: its
	// distance to sv1 must be ≥ the last cutoff.
	d := w.Dist(sv[1], sv[0])
	if cut1, _, _ := tree.inner(n); d < cut1[len(cut1)-1] {
		t.Errorf("sv2 at distance %g from sv1, outermost shell starts at %g", d, cut1[len(cut1)-1])
	}
}

func TestValidateAcceptsHealthyTrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 22))
	w := testutil.NewVectorWorkload(rng, 400, 6, 1, metric.L2)
	for _, opts := range optionMatrix {
		c := metric.NewCounter(w.Dist)
		tree, err := New(w.Items, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(); err != nil {
			t.Errorf("opts %+v: %v", opts, err)
		}
	}
}

func TestValidateDetectsWrongMetric(t *testing.T) {
	// The persistence footgun: load a tree with a different metric.
	rng := rand.New(rand.NewPCG(26, 22))
	w := testutil.NewVectorWorkload(rng, 200, 6, 1, metric.L2)
	c := metric.NewCounter(w.Dist)
	tree, err := New(w.Items, c, Options{Partitions: 3, LeafCapacity: 10, PathLength: 4, Build: Build{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Reload the tree under a metric that disagrees with the one it
	// was built with.
	var buf bytes.Buffer
	if err := tree.Save(&buf, encodeID); err != nil {
		t.Fatal(err)
	}
	wrong := metric.NewCounter(func(a, b int) float64 { return w.Dist(a, b) * 2 })
	loaded, err := Load(&buf, wrong, decodeID)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err == nil {
		t.Error("Validate accepted a tree loaded with the wrong metric")
	}
}
