package build

import (
	"cmp"
	"math/bits"
	"slices"
)

// Key is one packed partition key of construction: a distance to the
// current vantage point and the id of the item it was measured for.
// Partitioning keys moves sixteen contiguous bytes per swap and compares
// without an indirection, which is what makes splitting a node's points
// cheap next to measuring them.
type Key struct {
	D  float64
	ID int32
}

// Scratch is the tree-wide scratch of a range-partitioned build over n
// items. Perm holds the item positions 0..n-1 and is partitioned in
// place: the subtree built over slots [lo, hi) reads and reorders only
// Perm[lo:hi], and uses only Dist[lo:hi] and Keys[lo:hi] as its
// distance row and partition keys. Sibling subtrees therefore own disjoint
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
	if b.pooled(len(ids)) {
		b.fanOut(len(ids), func(lo, hi int) { b.distances(v, items, ids[lo:hi], out[lo:hi]) })
	} else {
		b.distances(v, items, ids, out)
	}
	b.dist.Add(int64(len(ids)))
}

// distances is the loop of MeasureIDs, whole or one worker's piece of
// it; the caller settles the counter. It goes through the counter's row
// kernel when the metric has one, which is exact, so the distances are
// those of the pair loop.
func (b *Builder[T]) distances(v T, items []T, ids []int32, out []float64) {
	if b.row != nil {
		b.row(v, items, ids, out)
		return
	}
	b.pairs(v, items, ids, out)
}

// pairs is distances one pair at a time, through the exact function. It
// retains neither ids nor out, so a caller's stack arrays stay on its
// stack, which a row kernel's call cannot promise.
func (b *Builder[T]) pairs(v T, items []T, ids []int32, out []float64) {
	for i, id := range ids {
		out[i] = b.raw(items[id], v)
	}
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

// SplitEqual is the partition step the vp-tree family shares: it cuts
// keys into m = len(cutoffs)+1 groups of equal cardinality (sizes differ
// by at most one; group g is keys[lo:hi] for lo, hi =
// GroupBounds(len(keys), m, g)) and fills cutoffs with the cutoffs
// between them. A group is the keys of its ranks under the total order
// (D, ID), so which keys it holds is a property of the keys and not of
// the algorithm. A cutoff is the midpoint between the largest distance
// of one group and the smallest of the next, so every group's distances
// lie within its closed shell. The largest key of all is left in the
// last slot; otherwise the order inside a group is unspecified (a
// function of the keys' arrangement on entry and of nothing else). It
// requires m <= len(keys), or no keys at all, and allocates nothing:
// the caller's cutoffs are its tree's.
//
// That is selection, not sorting: linear in len(keys) for a fixed m.
func SplitEqual(keys []Key, cutoffs []float64) {
	n, m := len(keys), len(cutoffs)+1
	if n == 0 {
		return
	}
	splitter{keys, m}.cut(0, n, 4*bits.Len(uint(n)), false)
	top, below := 0, 0.0 // the group's largest key; the distance of the one before's
	for g := 0; g < m; g++ {
		lo, hi := GroupBounds(n, m, g)
		least := keys[lo].D
		top = lo
		for i := lo + 1; i < hi; i++ {
			if keys[i].D < least {
				least = keys[i].D
			}
			if keys[top].less(keys[i]) {
				top = i
			}
		}
		if g > 0 {
			cutoffs[g-1] = (below + least) / 2
		}
		below = keys[top].D
	}
	keys[top], keys[n-1] = keys[n-1], keys[top]
}

func (k Key) less(o Key) bool { return k.D < o.D || k.D == o.D && k.ID < o.ID }

// compareKeys is less as a three-way comparison, for the library's sort.
func compareKeys(a, b Key) int { return cmp.Or(cmp.Compare(a.D, b.D), cmp.Compare(a.ID, b.ID)) }

// splitter is one SplitEqual: keys, to be cut into m groups.
type splitter struct {
	keys []Key
	m    int
}

// splits reports whether a group starts at a rank strictly inside
// (a, b): the first to start after rank a is the one after a's own.
func (s splitter) splits(a, b int) bool {
	n := len(s.keys)
	base, larger := n/s.m, n%s.m
	g := a / (base + 1) // a's group, if it is one of the larger ones
	if g >= larger {
		g = larger + (a-larger*(base+1))/base
	}
	_, hi := GroupBounds(n, s.m, g)
	return hi < b
}

// insertionMax is the longest range cut orders outright.
const insertionMax = 12

// cut is a quickselect for several ranks at once. keys[a:b] hold the
// keys of ranks a to b-1 in some order; cut arranges them so that every
// group boundary inside the range has the keys of lower rank on its
// left. A range is partitioned three ways on distance alone — below,
// equal to and above a pivot — and only the parts a boundary falls
// strictly inside are looked at again, so a metric of few distinct
// values (edit distance) pays for its ties once: inside a block of equal
// distances rank is by id, and only a block a boundary falls in is cut
// by it (byID: every D holds its key's ID meanwhile). limit bounds the
// rounds a range may take however its pivots fall; past it the range is
// sorted.
func (s splitter) cut(a, b, limit int, byID bool) {
	keys := s.keys
	for s.splits(a, b) {
		if b-a <= insertionMax {
			for i := a + 1; i < b; i++ {
				for j := i; j > a && keys[j].less(keys[j-1]); j-- {
					keys[j], keys[j-1] = keys[j-1], keys[j]
				}
			}
			return
		}
		if limit == 0 {
			slices.SortFunc(keys[a:b], compareKeys)
			return
		}
		limit--

		// The pivot is the median of the first, middle and last distance.
		p, q, r := keys[a].D, keys[a+(b-a)/2].D, keys[b-1].D
		p = max(min(p, q), min(max(p, q), r))
		// Two sweeps from both ends: keys[a:lt] < p <= keys[lt:b], then
		// keys[lt:gt] == p < keys[gt:b].
		lt := a
		for j := b - 1; ; lt, j = lt+1, j-1 {
			for lt <= j && keys[lt].D < p {
				lt++
			}
			for lt <= j && !(keys[j].D < p) {
				j--
			}
			if lt >= j {
				break
			}
			keys[lt], keys[j] = keys[j], keys[lt]
		}
		gt := lt
		for j := b - 1; ; gt, j = gt+1, j-1 {
			for gt <= j && !(keys[gt].D > p) {
				gt++
			}
			for gt <= j && keys[j].D > p {
				j--
			}
			if gt >= j {
				break
			}
			keys[gt], keys[j] = keys[j], keys[gt]
		}

		if !byID && s.splits(lt, gt) { // under byID a tie is the same key twice
			for i := lt; i < gt; i++ {
				keys[i].D = float64(keys[i].ID)
			}
			s.cut(lt, gt, limit, true)
			for i := lt; i < gt; i++ {
				keys[i].D = p
			}
		}
		s.cut(a, lt, limit, byID)
		a = gt
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
