package build

// Key is one packed sort key of construction: a distance to the current
// vantage point and the id of the item it was measured for. Sorting
// keys moves sixteen contiguous bytes per swap and compares without an
// indirection, which is what makes ordering a node's points cheap next
// to measuring them.
type Key struct {
	D  float64
	ID int32
}

// Scratch is the tree-wide scratch of a range-partitioned build over n
// items. Perm holds the item positions 0..n-1 and is partitioned in
// place: the subtree built over slots [lo, hi) reads and reorders only
// Perm[lo:hi], and uses only Dist[lo:hi] and Keys[lo:hi] as its
// distance row and sort keys. Sibling subtrees therefore own disjoint
// ranges of all three, so Fork tasks share the arenas without
// synchronization and no node allocates scratch of its own.
type Scratch struct {
	Perm []int32
	Dist []float64
	Keys []Key
}

// NewScratch returns the scratch for n items with Perm the identity.
func NewScratch(n int) Scratch {
	s := Scratch{Perm: make([]int32, n), Dist: make([]float64, n), Keys: make([]Key, n)}
	for i := range s.Perm {
		s.Perm[i] = int32(i)
	}
	return s
}

// MeasureIDs is Measure over the points items[ids[i]]: out[i] receives
// the distance from items[ids[i]] to the vantage point v. Batches too
// small to fan out — every node below the top few levels — are
// measured without allocating.
func (b *Builder[T]) MeasureIDs(v T, items []T, ids []int32, out []float64) {
	if b.workers > 1 && len(ids) >= MeasureThreshold {
		b.Measure(v, func(i int) T { return items[ids[i]] }, out)
		return
	}
	b.measureSerial(v, items, ids, out)
}

// measureSerial is MeasureIDs on the calling goroutine. It retains
// neither ids nor out, so a caller's stack arrays stay on its stack.
func (b *Builder[T]) measureSerial(v T, items []T, ids []int32, out []float64) {
	for i, id := range ids {
		out[i] = b.raw(items[id], v)
	}
	b.dist.Add(int64(len(ids)))
}

// MeasureKeys is MeasureIDs that also packs the (distance, id) keys, in
// ids' order, into keys. The three slices are one subtree's ranges of
// a Scratch and have equal length.
func (b *Builder[T]) MeasureKeys(v T, items []T, ids []int32, dist []float64, keys []Key) {
	b.MeasureIDs(v, items, ids, dist)
	for i, id := range ids {
		keys[i] = Key{D: dist[i], ID: id}
	}
}

// SplitEqual is the partition step the vp-tree family shares: it orders
// keys by distance and fills cutoffs with the cutoffs of the split into
// m = len(cutoffs)+1 groups of equal cardinality (sizes differ by at most
// one; group g is keys[lo:hi] for lo, hi = GroupBounds(len(keys), m, g)).
// A cutoff is the midpoint between the last distance of one group and
// the first of the next, so every group's distances lie within its
// closed shell. It requires m <= len(keys), and allocates nothing: the
// caller's cutoffs are its tree's.
//
// The ids take no part in the comparison; the order among equal
// distances is the one sortKeys documents.
func SplitEqual(keys []Key, cutoffs []float64) {
	sortKeys(keys)
	for g := range cutoffs {
		_, hi := GroupBounds(len(keys), len(cutoffs)+1, g)
		cutoffs[g] = (keys[hi-1].D + keys[hi].D) / 2
	}
}

// GroupBounds returns the half-open rank interval [lo, hi) of group g
// when n ranks are split into m groups whose sizes differ by at most
// one, the larger groups first.
func GroupBounds(n, m, g int) (lo, hi int) {
	base, extra := n/m, n%m
	lo = g*base + min(g, extra)
	hi = lo + base
	if g < extra {
		hi++
	}
	return lo, hi
}
