package mvp

import (
	"fmt"
	"math"
	"slices"
)

// Validate recomputes every stored distance and partition bound in the
// tree and verifies the structural invariants the search algorithms
// rely on: the shape (checkShape), a filter grid the codes agree with
// (checkGrid), leaf D1/D2 arrays and PATH prefixes equal to fresh metric
// evaluations at stored precision (the fresh value's code is the one the
// leaf holds), and every point inside its shells' closed intervals.
//
// A failure means either the tree was built with a different metric
// than the one now wired in (the classic persistence mistake — Load
// cannot detect it) or the metric is not deterministic. Validate costs
// O(n·(log n + p)) distance computations through the tree's Counter; it
// is a diagnostic, not something to run per query.
func (t *Tree[T]) Validate() error {
	if _, err := t.checkShape(); err != nil {
		return err
	}
	if err := t.checkGrid(); err != nil {
		return err
	}
	if len(t.nodes) == 0 {
		return nil
	}
	return t.validateNode(0, nil)
}

// checkGrid verifies what decode and window assume of the filter arena:
// a step that is a power of two, and the slack the codes call for — so no
// odd code under slack 0, and none past topCode under a finite slack. A
// narrow arena's cells are checked before they are widened (checkCells).
func (t *Tree[T]) checkGrid() error {
	if f, e := math.Frexp(t.step); f != 0.5 || e-1 < minStepExp || e-1 > maxStepExp {
		return fmt.Errorf("mvp: filter step %g is not a power of two a tree can have", t.step)
	}
	sum, err := t.checkCells()
	if err != nil {
		return err
	}
	if want := sum.slack(t.step); t.slack != want {
		return fmt.Errorf("mvp: filter slack %g, the stored codes call for %g", t.slack, want)
	}
	return nil
}

// checkShape is the half of Validate that needs no metric, one pass over
// the node rows that returns the tree's height. It checks the header's
// point count; that the rows make a tree, every node but the root the
// child of exactly one node numbered below it; leaves within capacity,
// with no more vantage points than v and none missing above items,
// holding min(p, v·depth) PATH entries and tiling the two leaf arenas in
// order (a leaf without items at offset 0, where a build leaves it);
// internal nodes with v vantage points, rows of the cutoff and child
// arenas that tile those in order, and cutoff rows that are distances in
// ascending order under cached bounds that are their largest — a row
// that is not puts points outside every shell the search would look in.
// Every offset is checked before anything is sliced by it, which is what
// lets Load take a stream's rows in bulk. What the rows cannot say needs
// no check: a second vantage point without a first, or a shell without
// its cutoff and child rows.
func (t *Tree[T]) checkShape() (height int, err error) {
	points, items, floats, cuts, kids := 0, 0, 0, 0, 0
	depth := make([]int, len(t.nodes))
	for i := 1; i < len(depth); i++ {
		depth[i] = -1 // no node's child yet
	}
	for i := range t.nodes {
		n, d := &t.nodes[i], depth[i]
		if d < 0 {
			return 0, fmt.Errorf("mvp: node %d of %d is no node's child", i, len(t.nodes))
		}
		height, points = max(height, d), points+int(n.svs)
		if n.isLeaf() {
			held := 0
			if n.cnt > 0 {
				held = min(t.p, t.v*d)
			}
			if int(n.svs) > t.v || n.cnt < 0 || int(n.cnt) > t.k || int(n.held) != held ||
				n.cnt > 0 && (n.svs == 0 || int(n.off) != items || int(n.foff) != floats) ||
				n.cnt == 0 && (n.off != 0 || n.foff != 0) {
				return 0, fmt.Errorf("mvp: leaf at depth %d holds %d vantage points and %d items with %d PATH entries at items[%d], filter[%d] (v=%d, k=%d, p=%d; the leaves before it end at %d, %d)",
					d, n.svs, n.cnt, n.held, n.off, n.foff, t.v, t.k, t.p, items, floats)
			}
			points, items, floats = points+int(n.cnt), items+int(n.cnt), floats+int(n.cnt)*(2+held)
			continue
		}
		c, k, ok := t.innerLen(n)
		if !ok || int(n.off) != cuts || int(n.foff) != kids {
			return 0, fmt.Errorf("mvp: internal node %d of %d shells at cuts[%d], kids[%d] (of %d and %d): its rows run past them, or the nodes before it end at %d, %d",
				i, n.cnt, n.off, n.foff, len(t.cuts), len(t.kids), cuts, kids)
		}
		cuts, kids = cuts+c, kids+k
		cut1, bounds, sh := t.inner(n)
		ordered, top2 := ascending(cut1), 0.0
		for range len(cut1) + 1 {
			row, cut2 := sh.next()
			ordered, top2 = ordered && ascending(cut2), max(top2, cutMax(cut2))
			for _, c := range row {
				if c == noChild {
					continue
				}
				if int(c) <= i || int(c) >= len(t.nodes) || depth[c] >= 0 {
					return 0, fmt.Errorf("mvp: node %d of %d has child %d: not above it, past the last node, or another's", i, len(t.nodes), c)
				}
				depth[c] = d + 1
			}
		}
		if int(n.svs) != t.v || !ordered || bounds[0] != cutMax(cut1) || t.v == 2 && bounds[1] != top2 {
			return 0, fmt.Errorf("mvp: internal node at depth %d has %d vantage points of %d, or cutoffs that are not ascending distances under bounds %v that are their largest", d, n.svs, t.v, bounds[:t.v])
		}
	}
	if points != t.size || items != t.leafItems || floats != t.codes() || cuts != len(t.cuts) || kids != len(t.kids) {
		return 0, fmt.Errorf("mvp: tree holds %d points, header says %d; its leaves %d items and %d codes of %d and %d, its internal nodes %d cutoffs and %d child slots of %d and %d",
			points, t.size, items, floats, t.leafItems, t.codes(), cuts, kids, len(t.cuts), len(t.kids))
	}
	return height, nil
}

// innerLen returns how many entries of the cutoff and child arenas
// internal node n owns from its offsets on (Tree.inner), and whether they
// are all inside the arenas, with a shell at least and a child slot at
// least per shell.
func (t *Tree[T]) innerLen(n *node) (cuts, kids int, ok bool) {
	s := int(n.cnt)
	if s < 1 || n.off < 0 || n.foff < 0 {
		return 0, 0, false
	}
	cuts, kids = t.v+s-1, s
	if t.v == 2 {
		if int(n.foff) > len(t.kids)-s {
			return 0, 0, false
		}
		for _, parts := range t.kids[n.foff:][:s] {
			if parts < 1 {
				return 0, 0, false
			}
			cuts, kids = cuts+int(parts)-1, kids+int(parts)
		}
	}
	return cuts, kids, int(n.off) <= len(t.cuts)-cuts && int(n.foff) <= len(t.kids)-kids
}

// ascending reports whether xs can be a row of cutoffs: distances — not
// NaN, not negative — none below the one before.
func ascending(xs []float64) bool {
	prev := 0.0
	for _, x := range xs {
		if !(x >= prev) {
			return false
		}
		prev = x
	}
	return true
}

func (t *Tree[T]) validateNode(i int32, ancestors []T) error {
	n, sv := &t.nodes[i], t.vantages(i)
	if n.isLeaf() {
		rows, stride := t.wideRows(n, new([]uint16))
		for i := range int(n.cnt) {
			it, row := t.items.at(int(n.off)+i), rows[i*stride:][:stride]
			if got := t.dist.Distance(it, sv[0]); encode(got, t.step) != row[0] {
				return fmt.Errorf("mvp: leaf D1[%d] = %g, metric now yields %g (wrong metric for this tree?)", i, t.decode(row[0]), got)
			}
			if n.hasSV2() {
				if got := t.dist.Distance(it, sv[1]); encode(got, t.step) != row[1] {
					return fmt.Errorf("mvp: leaf D2[%d] = %g, metric now yields %g", i, t.decode(row[1]), got)
				}
			}
			for l, stored := range row[2:] {
				if got := t.dist.Distance(it, ancestors[l]); encode(got, t.step) != stored {
					return fmt.Errorf("mvp: PATH[%d] = %g, metric now yields %g", l, t.decode(stored), got)
				}
			}
		}
		return nil
	}
	next := append(slices.Clip(ancestors), sv...)
	cut1, _, sh := t.inner(n)
	for g := 0; g <= len(cut1); g++ {
		row, cut2 := sh.next()
		lo1, hi1 := shellBounds(cut1, g)
		for h, c := range row {
			if c == noChild {
				continue
			}
			lo2, hi2 := shellBounds(cut2, h)
			var points []T
			t.collectAll(c, &points)
			for _, pt := range points {
				if d := t.dist.Distance(pt, sv[0]); d < lo1 || d > hi1 {
					return fmt.Errorf("mvp: point at distance %g from first vantage point outside shell [%g, %g]", d, lo1, hi1)
				}
				if t.v == 1 {
					continue
				}
				if d := t.dist.Distance(pt, sv[1]); d < lo2 || d > hi2 {
					return fmt.Errorf("mvp: point at distance %g from second vantage point outside sub-shell [%g, %g]", d, lo2, hi2)
				}
			}
			if err := t.validateNode(c, next); err != nil {
				return err
			}
		}
	}
	return nil
}
