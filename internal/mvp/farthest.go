package mvp

import (
	"mvptree/internal/heapx"
	"mvptree/internal/index"
)

// The paper (§2) lists, among the similarity-query variants, queries for
// objects *farther* than a range and for the k *farthest* objects. Both
// are supported here with the same machinery as near-neighbor search,
// with the triangle-inequality bounds reversed: a shell [lo, hi] around
// a vantage point at distance d from the query bounds the distance of
// its members to the query within [gap, d+hi], where gap is the interval
// distance. Pre-computed leaf distances additionally allow accepting a
// point without computing its distance when its lower bound already
// clears the range.

// RangeFarther returns every indexed item at distance ≥ r from q.
func (t *Tree[T]) RangeFarther(q T, r float64) []T {
	if len(t.nodes) == 0 {
		return nil
	}
	var out []T
	if r <= 0 {
		t.collectAll(0, &out)
		return out
	}
	qpath := make([]float64, 0, t.p)
	sc := t.getScratch(index.SearchOptions{})
	t.rangeFartherNode(0, q, r, qpath, &sc.rows, &out)
	t.putScratch(sc)
	return out
}

// rangeFartherNode adds to out what RangeFarther finds in the subtree of
// node i; buf is the query's buffer for the leaves' rows (wideRows).
func (t *Tree[T]) rangeFartherNode(i int32, q T, r float64, qpath []float64, buf *[]uint16, out *[]T) {
	n := &t.nodes[i]
	if n.isLeaf() {
		t.rangeFartherLeaf(i, q, r, qpath, buf, out)
		return
	}
	// Without a second vantage point d2 is 0 and each shell's one
	// sub-shell [0, +Inf]: neither test on them below ever fires.
	var d [2]float64
	for j, sv := range t.vantages(i) {
		if d[j] = t.dist.Distance(q, sv); d[j] >= r && t.keeps(t.vpSlot(i, j)) {
			*out = append(*out, sv)
		}
		if len(qpath) < t.p {
			qpath = append(qpath, d[j])
		}
	}
	d1, d2 := d[0], d[1]
	cut1, _, sh := t.inner(n)
	for g := 0; g <= len(cut1); g++ {
		row, cut2 := sh.next()
		lo1, hi1 := shellBounds(cut1, g)
		if d1+hi1 < r {
			continue // every point in the shell is provably too close
		}
		for h, c := range row {
			if c == noChild {
				continue
			}
			lo2, hi2 := shellBounds(cut2, h)
			if d2+hi2 < r {
				continue
			}
			// If the whole sub-shell is provably far enough, take it
			// wholesale without any further distance computations.
			if intervalGap(d1, lo1, hi1) >= r || intervalGap(d2, lo2, hi2) >= r {
				t.collectAll(c, out)
				continue
			}
			t.rangeFartherNode(c, q, r, qpath, buf, out)
		}
	}
}

func (t *Tree[T]) rangeFartherLeaf(i int32, q T, r float64, qpath []float64, buf *[]uint16, out *[]T) {
	var d [2]float64
	for j, sv := range t.points(i) {
		if d[j] = t.dist.Distance(q, sv); d[j] >= r && t.keeps(t.vpSlot(i, j)) {
			*out = append(*out, sv)
		}
	}
	n := &t.nodes[i]
	rows, stride := t.wideRows(n, buf)
	for i, it := range t.leafItems(n) {
		if !t.keeps(int(n.off) + i) {
			continue
		}
		lb, ub := t.leafBounds(rows[i*stride:][:stride], n.hasSV2(), d[0], d[1], qpath)
		switch {
		case ub < r:
			// Provably too close.
		case lb >= r:
			// Provably far enough: no distance computation needed.
			*out = append(*out, it)
		default:
			if t.dist.Distance(q, it) >= r {
				*out = append(*out, it)
			}
		}
	}
}

// leafBounds returns lower and upper triangle-inequality bounds on the
// distance from the query to a leaf item, from its stored filter row and
// the query's qpath; the row is codes on the tree's grid (wideRows), so
// both give the slack away.
func (t *Tree[T]) leafBounds(row []uint16, hasSV2 bool, d1, d2 float64, qpath []float64) (lb, ub float64) {
	x1 := t.decode(row[0])
	lb, ub = abs(d1-x1), d1+x1
	if hasSV2 {
		x2 := t.decode(row[1])
		lb, ub = max(lb, abs(d2-x2)), min(ub, d2+x2)
	}
	for l, c := range row[2:] {
		pd := t.decode(c)
		lb, ub = max(lb, abs(qpath[l]-pd)), min(ub, qpath[l]+pd)
	}
	return lb - t.slack, ub + t.slack
}

// collectAll appends every data point in the subtree of node i that is
// not tombstoned, without any distance computations.
func (t *Tree[T]) collectAll(i int32, out *[]T) {
	n := &t.nodes[i]
	t.appendKept(out, t.points(i), t.vpSlot(i, 0))
	if n.isLeaf() {
		t.appendKept(out, t.leafItems(n), int(n.off))
		return
	}
	cut1, _, sh := t.inner(n)
	for range len(cut1) + 1 {
		row, _ := sh.next()
		for _, c := range row {
			if c != noChild {
				t.collectAll(c, out)
			}
		}
	}
}

// appendKept appends to out the items of xs, in the slots from slot on,
// that are not tombstoned.
func (t *Tree[T]) appendKept(out *[]T, xs []T, slot int) {
	if t.dead == nil {
		*out = append(*out, xs...)
		return
	}
	for k, x := range xs {
		if t.keeps(slot + k) {
			*out = append(*out, x)
		}
	}
}

// Items returns every item the tree stores and has not tombstoned
// (Remove), vantage points and leaf items in node pre-order, at no
// distance computations.
func (t *Tree[T]) Items() []T {
	out := make([]T, 0, t.size-t.tombs)
	if len(t.nodes) > 0 {
		t.collectAll(0, &out)
	}
	return out
}

// KFarthest returns the k indexed items farthest from q in descending
// distance order, by best-first traversal on distance upper bounds.
func (t *Tree[T]) KFarthest(q T, k int) []index.Neighbor[T] {
	if k <= 0 || len(t.nodes) == 0 {
		return nil
	}
	best := heapx.NewKLargest[T](k, t.size)
	sc := t.getScratch(index.SearchOptions{})
	defer t.putScratch(sc)
	type pending struct {
		n     int32
		qpath []float64
	}
	// NodeQueue is a min-heap; store the negated upper bound so the
	// most promising (largest upper bound) subtree pops first.
	var queue heapx.NodeQueue[pending]
	queue.PushNode(pending{0, make([]float64, 0, t.p)}, 0)
	for {
		pn, negUB, ok := queue.PopNode()
		if !ok {
			break
		}
		if !best.Accepts(-negUB) {
			break
		}
		n, qpath := &t.nodes[pn.n], pn.qpath
		if n.isLeaf() {
			t.kFarthestLeaf(pn.n, q, qpath, &sc.rows, best)
			continue
		}
		if len(qpath) < t.p {
			qpath = append(make([]float64, 0, t.p), qpath...)
		}
		var d [2]float64 // d2 is 0 without a second vantage point; so is its shell's upper bound +Inf
		for j, sv := range t.vantages(pn.n) {
			d[j] = t.dist.Distance(q, sv)
			if t.keeps(t.vpSlot(pn.n, j)) {
				best.Push(sv, d[j])
			}
			if len(qpath) < t.p {
				qpath = append(qpath, d[j])
			}
		}
		d1, d2 := d[0], d[1]
		cut1, _, sh := t.inner(n)
		for g := 0; g <= len(cut1); g++ {
			row, cut2 := sh.next()
			_, hi1 := shellBounds(cut1, g)
			ub1 := d1 + hi1
			if !best.Accepts(ub1) {
				continue
			}
			for h, c := range row {
				if c == noChild {
					continue
				}
				_, hi2 := shellBounds(cut2, h)
				ub := min(ub1, d2+hi2)
				if best.Accepts(ub) {
					queue.PushNode(pending{c, qpath}, -ub)
				}
			}
		}
	}
	return best.Sorted()
}

func (t *Tree[T]) kFarthestLeaf(i int32, q T, qpath []float64, buf *[]uint16, best *heapx.KLargest[T]) {
	var d [2]float64
	for j, sv := range t.points(i) {
		d[j] = t.dist.Distance(q, sv)
		if t.keeps(t.vpSlot(i, j)) {
			best.Push(sv, d[j])
		}
	}
	n := &t.nodes[i]
	rows, stride := t.wideRows(n, buf)
	for i, it := range t.leafItems(n) {
		if !t.keeps(int(n.off) + i) {
			continue
		}
		_, ub := t.leafBounds(rows[i*stride:][:stride], n.hasSV2(), d[0], d[1], qpath)
		if best.Accepts(ub) {
			best.Push(it, t.dist.Distance(q, it))
		}
	}
}
