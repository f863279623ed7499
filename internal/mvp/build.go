package mvp

import "mvptree/internal/build"

// construction is the state of one tree build. The tree is built over a
// permutation of item positions partitioned in place (build.Scratch):
// the subtree over slots [lo, hi) owns those slots of the permutation,
// of the distance row and of the sort keys, so no level copies its
// points and no node allocates scratch. paths is the n×p PATH arena:
// row id accumulates item id's distances to the vantage points above
// it. The tree's item arena and raw, the filter arena's rows as the
// float64s measured, are allocated whole beforehand: where a subtree's
// leaves land depends on its size and depth alone (leafLoad), so every
// leaf writes its items and rows straight into place. raw lives until
// Tree.encodeLeaves has put it on the tree's grid.
type construction[T any] struct {
	t     *Tree[T]
	b     *build.Builder[T]
	opts  *Options
	items []T
	build.Scratch
	paths []float64
	raw   []float64
}

// pathLen is the number of PATH entries every point of a subtree at
// depth already holds: v per internal level above it, capped at p.
func (c *construction[T]) pathLen(depth int) int { return min(c.t.p, c.t.v*depth) }

// build recursively constructs the subtree over slots [lo, hi),
// following the paper's construction algorithm (§4.2) generalized from
// m=2 to any m, and its vp-tree construction (§3.3) where v is 1.
//
// src is the splittable RNG fixed by this subtree's position, so the
// tree is identical for every worker count; off and foff are where the
// subtree's leaves start in the tree's item and filter arenas.
func (c *construction[T]) build(lo, hi int, src build.RNG, depth, off, foff int) *node[T] {
	switch {
	case lo == hi:
		return nil
	case hi-lo <= c.t.k+c.t.v:
		return c.buildLeaf(lo, hi, src, depth, off, foff)
	default:
		return c.buildInternal(lo, hi, src, depth, off, foff)
	}
}

// leafLoad is the number of leaf items, and of stored distances, in the
// subtree build makes of size points at depth: splits are by rank, so
// sizes alone decide it (shellRange is shared with buildInternal).
func (c *construction[T]) leafLoad(size, depth int) (items, floats int) {
	if v := c.t.v; size <= c.t.k+v {
		items = max(size-v, 0)
		return items, items * (2 + c.pathLen(depth))
	}
	for g := 0; g < min(c.t.m, size-1); g++ {
		lo, hi := c.shellRange(size, g)
		for h, parts := 0, c.parts(hi-lo); h < parts; h++ {
			partLo, partHi := build.GroupBounds(hi-lo, parts, h)
			i, f := c.leafLoad(partHi-partLo, depth+1)
			items, floats = items+i, floats+f
		}
	}
	return items, floats
}

// shellRange is the rank range of shell g among the size-1 points an
// internal node ranks by distance to its first vantage point.
func (c *construction[T]) shellRange(size, g int) (lo, hi int) {
	shells := min(c.t.m, size-1)
	lo, hi = build.GroupBounds(size-1, shells, g)
	if g == shells-1 && c.t.v == 2 {
		hi-- // the outer shell gave up sv2
	}
	return lo, hi
}

// parts is the number of children a shell of size points gets: one per
// sub-shell the second vantage point cuts it into, else the shell itself.
func (c *construction[T]) parts(size int) int {
	if c.t.v == 1 {
		return 1 // its shells are never empty: none gave up a vantage point
	}
	return min(c.t.m, size)
}

// firstVantage makes the point at slot pick the node's first vantage
// point, moves it to the last slot and returns the remaining slots.
func (c *construction[T]) firstVantage(n *node[T], perm []int32, pick int) []int32 {
	last := len(perm) - 1
	perm[pick], perm[last] = perm[last], perm[pick]
	n.sv1, n.hasSV1 = c.items[perm[last]], true
	return perm[:last]
}

// buildLeaf implements step 2 of the paper's algorithm: pick the first
// vantage point arbitrarily (a seeded draw, like the paper's
// implementation; choosing it by spread as internal nodes do bought at
// most a point of query cost for 6–35 points of build distances,
// docs/TUNING.md), the second — when v is 2 — as the farthest point from
// the first, and store exact distances D1, D2 for the remaining points.
func (c *construction[T]) buildLeaf(lo, hi int, src build.RNG, depth, off, foff int) *node[T] {
	c.b.Node(depth)
	n := &node[T]{}
	rest := c.firstVantage(n, c.Perm[lo:hi], src.Pick(hi-lo))
	if len(rest) == 0 {
		return n
	}

	d1 := c.Dist[lo : lo+len(rest)]
	c.b.MeasureIDs(n.sv1, c.items, rest, d1)
	v := c.t.v
	if v == 2 {
		far := 0
		for i := range rest {
			if d1[i] > d1[far] {
				far = i
			}
		}
		// Second vantage point: the farthest point from the first (§4.2:
		// "we chose the second vantage point in a leaf node to be the
		// farthest point from the first vantage point of that leaf node").
		last := len(rest) - 1
		rest[far], rest[last] = rest[last], rest[far]
		d1[far], d1[last] = d1[last], d1[far]
		n.sv2, n.hasSV2 = c.items[rest[last]], true
		rest, d1 = rest[:last], d1[:last]
		if len(rest) == 0 {
			return n
		}
	}

	// D1 goes into the rows first, so its slots of Dist can take D2.
	p, held := c.t.p, c.pathLen(depth)
	n.off, n.foff, n.cnt, n.held = int32(off), foff, int32(len(rest)), int32(held)
	items, stride := c.t.items[off:off+len(rest)], 2+held
	rows := c.raw[foff : foff+len(rest)*stride]
	for i, id := range rest {
		items[i] = c.items[id]
		row := rows[i*stride : (i+1)*stride]
		row[0] = d1[i]
		copy(row[2:], c.paths[int(id)*p:int(id)*p+held])
	}
	if v == 2 {
		c.b.MeasureIDs(n.sv2, c.items, rest, d1)
		for i := range rest {
			rows[i*stride+1] = d1[i]
		}
	}
	return n
}

// measure fills keys with the distances from v to the points in ids and
// retains each in the point's PATH row at index held while below the
// cap.
func (c *construction[T]) measure(v T, ids []int32, dist []float64, keys []build.Key, held int) {
	c.b.MeasureKeys(v, c.items, ids, dist, keys)
	if p := c.t.p; held < p {
		for i, id := range ids {
			c.paths[int(id)*p+held] = dist[i]
		}
	}
}

// buildInternal implements step 3 of the paper's algorithm generalized
// to m partitions per vantage point: the first vantage point splits the
// set into m equal shells; one second vantage point (from the outermost
// shell) splits every shell into m more — with v = 1 there is none, and
// each shell is a child (the vp-tree's node). Child subtrees build through
// the shared pool via Fork, each over its own slot range and with its
// own position-derived RNG.
//
// The paper draws the first vantage point; here it is the candidate of
// largest sampled spread (build.SelectVantage, the [Yia93] heuristic),
// because every PATH entry and shell boundary below is a distance to
// it. Nodes too small to sample, and every node under
// RandomFirstVantage, take the single draw.
func (c *construction[T]) buildInternal(lo, hi int, src build.RNG, depth, off, foff int) *node[T] {
	c.b.Node(depth)
	rng := src.Rand()
	n := &node[T]{}
	sample := build.SpreadSample(hi - lo)
	if c.opts.RandomFirstVantage {
		sample = 0
	}
	perm := c.Perm[lo:hi]
	rest := c.firstVantage(n, perm, c.b.SelectVantage(c.items, perm, rng, build.SpreadCandidates, sample))
	dist, keys := c.Dist[lo:lo+len(rest)], c.Keys[lo:lo+len(rest)]
	held := c.pathLen(depth)

	c.measure(n.sv1, rest, dist, keys, held)
	shells := min(c.t.m, len(keys))
	n.cut1 = build.SplitEqual(keys, shells)

	if c.t.v == 2 {
		// Second vantage point: from the outermost shell — the farthest
		// point from sv1 by default, or a random member for the ablation.
		outerLo, outerHi := build.GroupBounds(len(keys), shells, shells-1)
		pick := outerHi - 1 // keys are sorted by d1: the farthest point
		if c.opts.RandomSecondVantage {
			pick = outerLo + rng.IntN(outerHi-outerLo)
		}
		sv2 := keys[pick].ID
		n.sv2, n.hasSV2 = c.items[sv2], true
		// Remove the picked key from the order (and from the outer shell);
		// its slot is the one after the points that go on to the children.
		keys = append(keys[:pick], keys[pick+1:]...)
		for i, k := range keys {
			rest[i] = k.ID
		}
		rest[len(keys)] = sv2
		rest, dist = rest[:len(keys)], dist[:len(keys)]

		// Distances to sv2 for every remaining point, across all shells.
		c.measure(n.sv2, rest, dist, keys, held+1)
	}

	// Partition every shell again (cheap: no distance computations),
	// then recurse through the pool. Each task writes one distinct
	// child slot, works on its own slot range and derives its RNG from
	// the child's position.
	type childTask struct {
		g, h      int
		lo, hi    int
		rng       build.RNG
		off, foff int
	}
	tasks := make([]childTask, 0, shells*c.t.m)
	n.cut2 = make([][]float64, shells)
	n.children = make([][]*node[T], shells)
	for g := range n.children {
		shellLo, shellHi := c.shellRange(hi-lo, g)
		shell := keys[shellLo:shellHi]
		if len(shell) == 0 {
			// An empty shell (possible when sv2 came from a shell of
			// size one): keep a placeholder so cut2/children stay
			// index-aligned with cut1 shells.
			n.children[g] = []*node[T]{nil}
			continue
		}
		// Order the shell's points by distance to sv2 and split again.
		parts := c.parts(len(shell))
		if c.t.v == 2 {
			n.cut2[g] = build.SplitEqual(shell, parts)
		}
		n.children[g] = make([]*node[T], parts)
		for h := range n.children[g] {
			partLo, partHi := build.GroupBounds(len(shell), parts, h)
			tasks = append(tasks, childTask{g, h, lo + shellLo + partLo, lo + shellLo + partHi, src.Child(len(tasks)), off, foff})
			items, floats := c.leafLoad(partHi-partLo, depth+1)
			off, foff = off+items, foff+floats
		}
	}
	for i, k := range keys {
		rest[i] = k.ID
	}
	n.setDerived()
	c.b.Fork(len(tasks), func(i int) {
		ct := tasks[i]
		n.children[ct.g][ct.h] = c.build(ct.lo, ct.hi, ct.rng, depth+1, ct.off, ct.foff)
	})
	return n
}
