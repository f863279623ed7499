package mvp

import (
	"fmt"
	"math"
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
	if err := t.checkShape(); err != nil {
		return err
	}
	if err := t.checkGrid(); err != nil {
		return err
	}
	return t.validateNode(t.root, nil)
}

// checkGrid verifies what decode and window assume of the filter arena:
// a step that is a power of two, and the slack the codes call for — so no
// odd code under slack 0, and none past topCode under a finite slack.
func (t *Tree[T]) checkGrid() error {
	if f, e := math.Frexp(t.step); f != 0.5 || e-1 < minStepExp || e-1 > maxStepExp {
		return fmt.Errorf("mvp: filter step %g is not a power of two a tree can have", t.step)
	}
	if want := slackOf(t.filter, t.step); t.slack != want {
		return fmt.Errorf("mvp: filter slack %g, the stored codes call for %g", t.slack, want)
	}
	return nil
}

// checkShape is the half of Validate that needs no metric: the header's
// point count, no second vantage point where v is 1 (a leaf row has no
// slot for its D2), leaves within capacity holding min(p, v·depth) PATH
// entries, and one child row per shell and one child per sub-shell, which
// keeps shellBounds inside the cutoff arrays. Load ends with it.
func (t *Tree[T]) checkShape() error {
	points, err := t.shapeOf(t.root, 0)
	if err == nil && points != t.size {
		err = fmt.Errorf("mvp: tree holds %d points, header says %d", points, t.size)
	}
	return err
}

func (t *Tree[T]) shapeOf(n *node[T], depth int) (points int, err error) {
	switch {
	case n == nil:
		return 0, nil
	case n.hasSV2 && (t.v == 1 || !n.hasSV1):
		return 0, fmt.Errorf("mvp: node at depth %d has a second vantage point without a first, or in a tree of one per node", depth)
	case n.isLeaf() && (int(n.cnt) > t.k || n.cnt > 0 && int(n.held) != min(t.p, t.v*depth)):
		return 0, fmt.Errorf("mvp: leaf at depth %d holds %d items with %d PATH entries (k=%d, p=%d)", depth, n.cnt, n.held, t.k, t.p)
	case !n.isLeaf() && (len(n.children) != len(n.cut1)+1 || len(n.cut2) != len(n.children)):
		return 0, fmt.Errorf("mvp: internal node has %d child rows for %d cut1 and %d cut2 rows", len(n.children), len(n.cut1), len(n.cut2))
	}
	if n.hasSV1 {
		points++
	}
	if n.hasSV2 {
		points++
	}
	points += int(n.cnt)
	for g, row := range n.children {
		if len(row) != len(n.cut2[g])+1 {
			return 0, fmt.Errorf("mvp: shell %d has %d children for %d cutoffs", g, len(row), len(n.cut2[g]))
		}
		for _, c := range row {
			sub, err := t.shapeOf(c, depth+1)
			if err != nil {
				return 0, err
			}
			points += sub
		}
	}
	return points, nil
}

func (t *Tree[T]) validateNode(n *node[T], ancestors []T) error {
	if n == nil {
		return nil
	}
	if n.isLeaf() {
		items, rows, stride := t.leaf(n)
		for i, it := range items {
			row := rows[i*stride : (i+1)*stride]
			if got := t.dist.Distance(it, n.sv1); encode(got, t.step) != row[0] {
				return fmt.Errorf("mvp: leaf D1[%d] = %g, metric now yields %g (wrong metric for this tree?)", i, t.decode(row[0]), got)
			}
			if n.hasSV2 {
				if got := t.dist.Distance(it, n.sv2); encode(got, t.step) != row[1] {
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
	next := append(append([]T(nil), ancestors...), n.sv1, n.sv2)[:len(ancestors)+t.v]
	for g, row := range n.children {
		lo1, hi1 := shellBounds(n.cut1, g)
		for h, c := range row {
			lo2, hi2 := shellBounds(n.cut2[g], h)
			var points []T
			t.collectAll(c, &points)
			for _, pt := range points {
				if d := t.dist.Distance(pt, n.sv1); d < lo1 || d > hi1 {
					return fmt.Errorf("mvp: point at distance %g from first vantage point outside shell [%g, %g]", d, lo1, hi1)
				}
				if !n.hasSV2 {
					continue
				}
				if d := t.dist.Distance(pt, n.sv2); d < lo2 || d > hi2 {
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
