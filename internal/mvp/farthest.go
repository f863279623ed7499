package mvp

import (
	"slices"

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
	sc := t.getScratch(index.SearchOptions{})
	sc.arena = slices.Grow(sc.arena[:0], t.p)
	t.rangeFartherNode(0, q, r, sc.arena[:0], &sc.rows, &out)
	t.putScratch(sc)
	return out
}

// rangeFartherNode adds to out what RangeFarther finds in the subtree of
// node i; buf is the query's buffer for the leaves' rows (wideRows). qpath
// is the query PATH down to i, in the scratch arena at its full capacity p:
// each level appends at its own positions, which only its subtree reads,
// so the depth-first descent extends one buffer in place.
func (t *Tree[T]) rangeFartherNode(i int32, q T, r float64, qpath []float64, buf *[]uint16, out *[]T) {
	n := &t.nodes[i]
	if n.isLeaf() {
		t.rangeFartherLeaf(i, q, r, qpath, buf, out)
		return
	}
	// Without a second vantage point d2 is 0 and each shell's one
	// sub-shell [0, +Inf]: neither test on them below ever fires.
	var d [2]float64
	for j := range t.v {
		sv := t.point(i, j)
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
	n, d := &t.nodes[i], [2]float64{}
	for j := range int(n.svs) {
		sv := t.point(i, j)
		if d[j] = t.dist.Distance(q, sv); d[j] >= r && t.keeps(t.vpSlot(i, j)) {
			*out = append(*out, sv)
		}
	}
	rows, stride := t.wideRows(n, buf)
	for i := range int(n.cnt) {
		slot := int(n.off) + i
		if !t.keeps(slot) {
			continue
		}
		lb, ub := t.leafBounds(rows[i*stride:][:stride], n.hasSV2(), d[0], d[1], qpath)
		switch {
		case ub < r:
			// Provably too close.
		case lb >= r:
			// Provably far enough: no distance computation needed.
			*out = append(*out, t.items.at(slot))
		default:
			if it := t.items.at(slot); t.dist.Distance(q, it) >= r {
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
	for j := range int(n.svs) {
		if t.keeps(t.vpSlot(i, j)) {
			*out = append(*out, t.point(i, j))
		}
	}
	if n.isLeaf() {
		for slot := int(n.off); slot < int(n.off+n.cnt); slot++ {
			if t.keeps(slot) {
				*out = append(*out, t.items.at(slot))
			}
		}
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
// distance order, by best-first traversal on distance upper bounds. Its
// heap, queue and the queued nodes' query PATHs are the pooled scratch's,
// as kNN's are (pendingRef windows into the arena), so a query allocates
// its result.
func (t *Tree[T]) KFarthest(q T, k int) []index.Neighbor[T] {
	if k <= 0 || len(t.nodes) == 0 {
		return nil
	}
	sc := t.getScratch(index.SearchOptions{})
	defer t.putScratch(sc)
	if sc.far == nil {
		sc.far = heapx.NewKLargest[T](k, t.size)
	} else {
		sc.far.Reset(k, t.size)
	}
	best, queue := sc.far, &sc.queue
	// NodeQueue is a min-heap; store the negated upper bound so the
	// most promising (largest upper bound) subtree pops first.
	queue.PushNode(pendingRef{}, 0)
	for {
		pn, negUB, ok := queue.PopNode()
		if !ok || !best.Accepts(-negUB) {
			break
		}
		n := &t.nodes[pn.n]
		if n.isLeaf() {
			t.kFarthestLeaf(pn.n, q, sc.arena[pn.off:pn.off+pn.plen], &sc.rows, best)
			continue
		}
		var d [2]float64 // d2 is 0 without a second vantage point; so is its shell's upper bound +Inf
		for j := range t.v {
			sv := t.point(pn.n, j)
			d[j] = t.dist.Distance(q, sv)
			if t.keeps(t.vpSlot(pn.n, j)) {
				best.Push(sv, d[j])
			}
		}
		off, plen := pn.off, pn.plen
		if int(plen) < t.p {
			// The children's query PATH: the parent's window and the new
			// distances, appended as a window of their own (knn).
			noff := int32(len(sc.arena))
			sc.arena = append(sc.arena, sc.arena[off:off+plen]...)
			for _, x := range d[:min(t.v, t.p-int(plen))] {
				sc.arena = append(sc.arena, x)
			}
			off, plen = noff, int32(len(sc.arena))-noff
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
					queue.PushNode(pendingRef{n: c, off: off, plen: plen}, -ub)
				}
			}
		}
	}
	return best.Sorted()
}

func (t *Tree[T]) kFarthestLeaf(i int32, q T, qpath []float64, buf *[]uint16, best *heapx.KLargest[T]) {
	n, d := &t.nodes[i], [2]float64{}
	for j := range int(n.svs) {
		sv := t.point(i, j)
		d[j] = t.dist.Distance(q, sv)
		if t.keeps(t.vpSlot(i, j)) {
			best.Push(sv, d[j])
		}
	}
	rows, stride := t.wideRows(n, buf)
	for i := range int(n.cnt) {
		slot := int(n.off) + i
		if !t.keeps(slot) {
			continue
		}
		_, ub := t.leafBounds(rows[i*stride:][:stride], n.hasSV2(), d[0], d[1], qpath)
		if best.Accepts(ub) {
			it := t.items.at(slot)
			best.Push(it, t.dist.Distance(q, it))
		}
	}
}
