package mvp

import (
	"math"
	"sync"
	"sync/atomic"

	"mvptree/internal/build"
)

// construction is the state of one tree build. The tree is built over a
// permutation of item positions partitioned in place (build.Scratch):
// the subtree over slots [lo, hi) owns those slots of the permutation,
// of the distance row and of the partition keys, so no level copies its
// points and no node allocates scratch. paths is the n×p PATH arena:
// row id accumulates item id's distances to the vantage points above
// it. The tree's arenas and raw, the filter arena's rows as the float64s
// measured, are allocated whole beforehand: what a subtree adds to each
// depends on its size and depth alone (load), so every node writes its
// row, cutoffs, children, items and filter rows straight into place, and
// sibling subtrees into disjoint ranges. raw lives until seal has put it
// on the tree's grid. Every fork of the build goes through run — do as
// one func value, where a closure per fork would be an allocation per
// node — over one table of task indices (do): tasks runs parallel to the
// tree's child arena, so the subtree whose index is kids[i] is built from
// tasks[i]; with two vantage points an internal node forks its splits
// too, which find what they cut in splits[node]; and seal forks the
// leaves' pieces.
type construction[T any] struct {
	t     *Tree[T]
	b     *build.Builder[T]
	opts  *Options
	items []T
	// points is the point arena's slots as a []T — the leaf items in leaf
	// order, then v vantage slots a node (Tree.vpSlot); the tree holds them
	// as the rule gives once all are placed (itemsOf).
	points []T
	build.Scratch
	paths  []float64
	raw    []float64
	top    atomic.Uint64 // the bits of raw's largest finite distance, leaf by leaf
	mu     sync.Mutex
	sum    codeSum // the filter's codes, piece by piece (sealPiece)
	tasks  []task
	splits []split
	span   int // the task indices of one node's split tasks of one kind
	run    func(int)
}

// split is what the split tasks of an internal node with two vantage
// points read: its permutation slots from lo and its size, and — when its
// second vantage point is measured beside the first split — the PATH
// entries its points hold, that point's place far in the row and the
// pieces the row is measured in.
type split struct {
	lo, size, held, far, pieces int
}

// load is what a subtree adds to each arena: node rows, leaf items,
// filter codes, cutoffs and child slots. Nodes are numbered, and the
// arenas filled, in pre-order: a subtree owns a contiguous range of each,
// starting with its root's.
type load struct{ nodes, items, floats, cuts, kids int }

func (l load) plus(o load) load {
	return load{l.nodes + o.nodes, l.items + o.items, l.floats + o.floats, l.cuts + o.cuts, l.kids + o.kids}
}

// task is one subtree to build: over the permutation's slots [lo, hi), at
// depth, into the arenas from at on. rng is the splittable RNG fixed by
// the subtree's position, so the tree is identical for every worker count.
type task struct {
	lo, hi, depth int
	rng           build.RNG
	at            load
}

// pathLen is the number of PATH entries every point of a subtree at
// depth already holds: v per internal level above it, capped at p.
func (c *construction[T]) pathLen(depth int) int { return min(c.t.p, c.t.v*depth) }

// do runs task i of the build's table: below len(tasks) the subtree
// tasks[i]; past them, 2·span a node, the split tasks of an internal node
// with two vantage points — span for its first split beside the row of
// sv2 (besideTask), then span for its shells (cutShellTask); past those
// the pieces of seal.
func (c *construction[T]) do(i int) {
	if i < len(c.tasks) {
		c.build(c.tasks[i])
		return
	}
	i -= len(c.tasks)
	if piece := i - 2*c.span*len(c.splits); piece >= 0 {
		c.sealPiece(piece)
		return
	}
	ni, j := i/(2*c.span), i%(2*c.span)
	if j < c.span {
		c.besideTask(ni, j)
	} else {
		c.cutShellTask(ni, j-c.span)
	}
}

// splitTasks is the first of do's indices of node ni's split tasks of a
// kind: 0 the first split's, 1 the shells'.
func (c *construction[T]) splitTasks(ni, kind int) int {
	return len(c.tasks) + (2*ni+kind)*c.span
}

// build recursively constructs the subtree tk describes, following the
// paper's construction algorithm (§4.2) generalized from m=2 to any m,
// and its vp-tree construction (§3.3) where v is 1.
func (c *construction[T]) build(tk task) {
	switch size := tk.hi - tk.lo; {
	case size == 0: // the child slot says noChild
	case size <= c.t.k+c.t.v:
		c.buildLeaf(tk)
	default:
		c.buildInternal(tk)
	}
}

// load is what the subtree build makes of size points at depth adds to
// the arenas: splits are by rank, so sizes alone decide it (own,
// shellRange and parts are shared with buildInternal).
func (c *construction[T]) load(size, depth int) load {
	switch v := c.t.v; {
	case size == 0:
		return load{}
	case size <= c.t.k+v:
		items := max(size-v, 0)
		return load{nodes: 1, items: items, floats: items * (2 + c.pathLen(depth))}
	}
	l := c.own(size)
	for g := 0; g < min(c.t.m, size-1); g++ {
		lo, hi := c.shellRange(size, g)
		for h, parts := 0, c.parts(hi-lo); h < parts; h++ {
			partLo, partHi := build.GroupBounds(hi-lo, parts, h)
			l = l.plus(c.load(partHi-partLo, depth+1))
		}
	}
	return l
}

// own is what an internal node of size points adds to the arenas itself
// (Tree.inner): its row; v cached bounds, a cutoff between shells and one
// between each shell's children; with two vantage points a count per
// shell, and a slot per child.
func (c *construction[T]) own(size int) load {
	v, shells := c.t.v, min(c.t.m, size-1)
	l := load{nodes: 1, cuts: v + shells - 1, kids: (v - 1) * shells}
	for g := 0; g < shells; g++ {
		lo, hi := c.shellRange(size, g)
		parts := c.parts(hi - lo)
		l.cuts, l.kids = l.cuts+parts-1, l.kids+parts
	}
	return l
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

// parts is the number of child slots a shell of size points gets: one per
// sub-shell the second vantage point cuts it into, else the shell itself.
// A shell left empty (sv2 came from a shell of one) keeps one slot, for
// noChild, so the cutoff and child rows stay aligned with the shells.
func (c *construction[T]) parts(size int) int {
	if c.t.v == 1 {
		return 1 // its shells are never empty: none gave up a vantage point
	}
	return max(1, min(c.t.m, size))
}

// BuildDistances is the number of distance computations New makes to
// build a tree of n items under opts, its build.Stats.Distances, found
// without an item or a metric: splits are by rank and a node's vantage
// selection samples by its size, so sizes alone decide it, as they decide
// the arenas (load). It prices the rebuild of a tree that was loaded and
// not built.
func BuildDistances(n int, opts Options) (int64, error) {
	opts.setDefaults()
	if err := opts.validate(); err != nil {
		return 0, err
	}
	c := construction[struct{}]{opts: &opts,
		t: &Tree[struct{}]{v: opts.Vantages, m: opts.Partitions, k: opts.LeafCapacity, p: opts.PathLength}}
	return c.distances(n), nil
}

// distances is what the subtree build of size points measures: a leaf
// its rows to the vantage points it holds; an internal node the
// candidates of its first vantage point against their sample
// (build.SelectVantage), its rows to the vantage points and its
// children's subtrees.
func (c *construction[T]) distances(size int) int64 {
	v := c.t.v
	if size <= 1 {
		return 0
	}
	d := int64(size-1) + int64(v-1)*int64(size-2) // the rows
	if size <= c.t.k+v {
		return d
	}
	if sample := min(build.SpreadSample(size), build.MaxSample, size-1); sample >= 2 && !c.opts.RandomFirstVantage {
		d += int64(build.SpreadCandidates * sample)
	}
	for g := 0; g < min(c.t.m, size-1); g++ {
		lo, hi := c.shellRange(size, g)
		for h, parts := 0, c.parts(hi-lo); h < parts; h++ {
			partLo, partHi := build.GroupBounds(hi-lo, parts, h)
			d += c.distances(partHi - partLo)
		}
	}
	return d
}

// firstVantage makes the point at slot pick node ni's first vantage
// point, moves it to the last slot and returns the remaining slots.
func (c *construction[T]) firstVantage(ni int, perm []int32, pick int) []int32 {
	last := len(perm) - 1
	perm[pick], perm[last] = perm[last], perm[pick]
	c.vantages(ni)[0] = c.items[perm[last]]
	return perm[:last]
}

// vantages returns node ni's vantage slots of the transient point arena.
func (c *construction[T]) vantages(ni int) []T {
	return c.points[c.t.vpSlot(int32(ni), 0):][:c.t.v]
}

// buildLeaf implements step 2 of the paper's algorithm: pick the first
// vantage point arbitrarily (a seeded draw, like the paper's
// implementation; choosing it by spread as internal nodes do bought at
// most a point of query cost for 6–35 points of build distances,
// docs/TUNING.md), the second — when v is 2 — as the farthest point from
// the first, and store exact distances D1, D2 for the remaining points.
func (c *construction[T]) buildLeaf(tk task) {
	c.b.Node(tk.depth)
	t, ni := c.t, tk.at.nodes
	n := &t.nodes[ni]
	rng := c.b.Rand(tk.rng)
	rest := c.firstVantage(ni, c.Perm[tk.lo:tk.hi], rng.IntN(tk.hi-tk.lo))
	c.b.Done(rng)
	*n = node{svs: 1}
	if len(rest) == 0 {
		return
	}

	sv := c.vantages(ni)
	d1 := c.Dist[tk.lo : tk.lo+len(rest)]
	c.b.MeasureIDs(sv[0], c.items, rest, d1)
	if t.v == 2 {
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
		sv[1], n.svs = c.items[rest[last]], 2
		rest, d1 = rest[:last], d1[:last]
		if len(rest) == 0 {
			return
		}
	}

	// D1 goes into the rows first, so its slots of Dist can take D2.
	p, held := t.p, c.pathLen(tk.depth)
	n.off, n.foff, n.cnt, n.held = int32(tk.at.items), int32(tk.at.floats), int32(len(rest)), uint16(held)
	items, stride := c.points[tk.at.items:tk.at.items+len(rest)], 2+held
	rows := c.raw[tk.at.floats : tk.at.floats+len(rest)*stride]
	for i, id := range rest {
		items[i] = c.items[id]
		row := rows[i*stride : (i+1)*stride]
		row[0] = d1[i]
		copy(row[2:], c.paths[int(id)*p:int(id)*p+held])
	}
	if t.v == 2 {
		c.b.MeasureIDs(sv[1], c.items, rest, d1)
		for i := range rest {
			rows[i*stride+1] = d1[i]
		}
	}
	// The step of the grid the rows go on is set by the largest of them.
	raise(&c.top, largest(rows))
}

// raise sets a, the bits of a float64 that is not negative, to x's when x
// is larger.
func raise(a *atomic.Uint64, x float64) {
	for old := a.Load(); x > math.Float64frombits(old); old = a.Load() {
		if a.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
}

// seal puts the leaves' distances on the tree's grid, whose step the
// largest of them set as the leaves were built, and finishes every leaf,
// in pieces of the node rows on the build's pool (sealPiece), then the
// filter (Tree.settle). Load stamps the codes it reads in one piece
// (sealLeaves).
func (c *construction[T]) seal() {
	t := c.t
	t.step = math.Ldexp(1, expFor(math.Float64frombits(c.top.Load())))
	t.filter = make([]uint16, len(c.raw))
	first := c.splitTasks(len(c.splits), 0)
	c.b.ForkRange(first, first+c.sealPieces(), c.run)
	t.settle(c.sum)
}

// sealPieces is the number of pieces seal cuts the node rows into: one a
// worker, unless the filter is too small to be worth spreading.
func (c *construction[T]) sealPieces() int {
	if len(c.raw) >= build.MeasureThreshold {
		return c.b.Workers()
	}
	return 1
}

// sealPiece stamps the leaves of seal's piece i (Tree.stamp) and adds
// the sum of their codes to the build's.
func (c *construction[T]) sealPiece(i int) {
	lo, hi := build.GroupBounds(len(c.t.nodes), c.sealPieces(), i)
	sum := c.t.stamp(c.raw, lo, hi)
	c.mu.Lock()
	c.sum = c.sum.add(sum)
	c.mu.Unlock()
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
// the shared pool via ForkRange, each over its own slot range and arena
// ranges and with its own position-derived RNG.
//
// The paper draws the first vantage point; here it is the candidate of
// largest sampled spread (build.SelectVantage, the [Yia93] heuristic),
// because every PATH entry and shell boundary below is a distance to
// it. Nodes too small to sample, and every node under
// RandomFirstVantage, take the single draw.
//
// The farthest point from the first vantage point is the key the first
// split leaves last, which build.Last finds before it: its row is
// measured in the order of the first, into the node's range of Dist, on
// the pool while the node splits, and the split keys find their distances
// there by the place each carries (build.Key.Pos). A random second
// vantage point is drawn from the outer shell, so it is measured after
// the split.
func (c *construction[T]) buildInternal(tk task) {
	c.b.Node(tk.depth)
	t, ni, lo, size := c.t, tk.at.nodes, tk.lo, tk.hi-tk.lo
	rng := c.b.Rand(tk.rng)
	sample := build.SpreadSample(size)
	if c.opts.RandomFirstVantage {
		sample = 0
	}
	perm := c.Perm[lo:tk.hi]
	rest := c.firstVantage(ni, perm, c.b.SelectVantage(c.items, perm, rng.Rand, build.SpreadCandidates, sample))
	dist, keys := c.Dist[lo:lo+len(rest)], c.Keys[lo:lo+len(rest)]
	held := c.pathLen(tk.depth)

	v, sv, shells := t.v, c.vantages(ni), min(t.m, len(keys))
	t.nodes[ni] = node{internal: true, svs: uint8(v), cnt: int32(shells), off: int32(tk.at.cuts), foff: int32(tk.at.kids)}
	cuts := t.cuts[tk.at.cuts:]
	cut1 := cuts[v : v+shells-1]
	c.measure(sv[0], rest, dist, keys, held)

	far, known := 0, false
	if v == 2 && !c.opts.RandomSecondVantage {
		far, known = build.Last(keys)
	}
	switch {
	case v == 1:
		c.b.Done(rng)
		build.SplitEqual(keys, cut1)
		for i, k := range keys {
			rest[i] = k.ID
		}
	case known:
		// Second vantage point: the farthest point from sv1 (its slot is
		// the one after the points that go on to the children).
		c.b.Done(rng)
		sv2 := keys[far].ID
		sv[1] = c.items[sv2]
		pieces := 1
		if len(rest) > build.MeasureThreshold {
			pieces = c.span - 1
		}
		c.splits[ni] = split{lo: lo, size: size, held: held, far: far, pieces: pieces}
		first := c.splitTasks(ni, 0)
		c.b.ForkRange(first, first+1+pieces, c.run)
		// The keys take their distances to sv2 by the places they carry,
		// before any child takes its range of dist for its own.
		keys = keys[:len(keys)-1]
		for i := range keys {
			keys[i].D = dist[keys[i].Pos]
		}
		rest[len(keys)] = sv2
	default:
		// A random member of the outermost shell for the ablation, or the
		// farthest point, which with a NaN among the distances the split
		// alone places.
		build.SplitEqual(keys, cut1)
		outerLo, outerHi := build.GroupBounds(len(keys), shells, shells-1)
		pick := outerHi - 1 // SplitEqual leaves the farthest point last
		if c.opts.RandomSecondVantage {
			pick = outerLo + rng.IntN(outerHi-outerLo)
		}
		c.b.Done(rng)
		sv2 := keys[pick].ID
		sv[1] = c.items[sv2]
		keys = append(keys[:pick], keys[pick+1:]...)
		for i, k := range keys {
			rest[i] = k.ID
		}
		rest[len(keys)] = sv2
		c.measure(sv[1], rest[:len(keys)], dist[:len(keys)], keys, held+1)
		c.splits[ni] = split{lo: lo, size: size}
	}
	cuts[0] = cutMax(cut1)

	// One task per child slot, each with the ranges of the permutation and
	// of the arenas that are its subtree's and an RNG derived from the
	// child's position, all fixed by sizes. With two vantage points a
	// shell is first cut again by distance to sv2, one task a shell, and
	// each shell's task then builds the shell's children.
	own := c.own(size)
	first, next, children := tk.at.kids+(v-1)*shells, tk.at.plus(own), 0
	slot := first
	for g := 0; g < shells; g++ {
		shellLo, shellHi := c.shellRange(size, g)
		parts := c.parts(shellHi - shellLo)
		if v == 2 {
			t.kids[tk.at.kids+g] = int32(parts)
		}
		for h := 0; h < parts; h++ {
			partLo, partHi := build.GroupBounds(shellHi-shellLo, parts, h)
			child := task{lo: lo + shellLo + partLo, hi: lo + shellLo + partHi, depth: tk.depth + 1, at: next}
			t.kids[slot] = noChild
			if child.hi > child.lo {
				t.kids[slot] = int32(next.nodes)
				child.rng = tk.rng.Child(children)
				children++
				next = next.plus(c.load(child.hi-child.lo, child.depth))
			}
			c.tasks[slot] = child
			slot++
		}
	}
	if v == 1 {
		c.b.ForkRange(first, slot, c.run)
		return
	}
	first = c.splitTasks(ni, 1)
	c.b.ForkRange(first, first+shells, c.run)
	cuts[1] = cutMax(cuts[v+shells-1 : own.cuts])
}

// besideTask is the first split of a node whose second vantage point is
// the farthest from its first: task 0 cuts the keys into shells by
// distance to sv1 while the others measure every other point's distance
// to sv2, a piece of the row each in the order the first was measured in
// (sv2's own place, far, left out), into Dist and the PATH column.
func (c *construction[T]) besideTask(ni, j int) {
	t, n, sp := c.t, &c.t.nodes[ni], &c.splits[ni]
	rest := sp.size - 1
	if j == 0 {
		v, shells := t.v, int(n.cnt)
		build.SplitEqual(c.Keys[sp.lo:sp.lo+rest], t.cuts[int(n.off)+v:int(n.off)+v+shells-1])
		return
	}
	lo, hi := build.GroupBounds(rest, sp.pieces, j-1)
	for _, r := range [2][2]int{{lo, min(hi, sp.far)}, {max(lo, sp.far+1), hi}} {
		if r[0] >= r[1] {
			continue
		}
		ids, dist := c.Perm[sp.lo+r[0]:sp.lo+r[1]], c.Dist[sp.lo+r[0]:sp.lo+r[1]]
		c.b.MeasureIDs(c.vantages(ni)[1], c.items, ids, dist)
		if p, held := t.p, sp.held+1; held < p {
			for i, id := range ids {
				c.paths[int(id)*p+held] = dist[i]
			}
		}
	}
}

// cutShellTask is the second split of a node with two vantage points, one
// task a shell: shell g's keys, which hold their distances to sv2, are cut
// into the shell's sub-shells and leave their ids in the permutation in
// the order the children read, and the shell's children are built.
func (c *construction[T]) cutShellTask(ni, g int) {
	t, n, sp := c.t, &c.t.nodes[ni], &c.splits[ni]
	// Shell g's cut2 row follows cut1 and the rows of the shells before it,
	// its child slots the counts and the rows of the shells before it.
	shells := int(n.cnt)
	cut, slot := int(n.off)+t.v+shells-1, int(n.foff)+shells
	for h := 0; h < g; h++ {
		parts := int(t.kids[int(n.foff)+h])
		cut, slot = cut+parts-1, slot+parts
	}
	parts := int(t.kids[int(n.foff)+g])
	shellLo, shellHi := c.shellRange(sp.size, g)
	keys := c.Keys[sp.lo+shellLo : sp.lo+shellHi]
	build.SplitEqual(keys, t.cuts[cut:cut+parts-1])
	for i, k := range keys {
		c.Perm[sp.lo+shellLo+i] = k.ID
	}
	c.b.ForkRange(slot, slot+parts, c.run)
}
