package build

import (
	"cmp"
	"math/bits"
	"slices"
)

// Key is one packed partition key of construction: a distance to the
// current vantage point, the id of the item it was measured for, and its
// place in the row it was measured in (MeasureKeys), which a split moves
// with it: after a split, row[keys[i].Pos] is key i's entry in any row
// measured in the same order. Partitioning keys moves sixteen contiguous
// bytes per swap and compares without an indirection, which is what
// makes splitting a node's points cheap next to measuring them.
type Key struct {
	D   float64
	ID  int32
	Pos int32
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
// the distance from items[ids[i]] to the vantage point v. It allocates
// nothing: a batch it fans out is cut into pieces a fork state carries.
func (b *Builder[T]) MeasureIDs(v T, items []T, ids []int32, out []float64) {
	b.measure(batch[T]{v: v, items: items, ids: ids, out: out})
}

// batch is a Measure or MeasureIDs batch — the points item(i), or with
// item nil items[ids[i]] — in pieces of size, whole or spread over a
// fork's goroutines.
type batch[T any] struct {
	v     T
	item  func(int) T
	items []T
	ids   []int32
	out   []float64
	size  int
}

// piece measures piece i; the caller settles the counter.
func (r *batch[T]) piece(b *Builder[T], i int) {
	lo, hi := i*r.size, min((i+1)*r.size, len(r.out))
	if r.item == nil {
		b.distances(r.v, r.items, r.ids[lo:hi], r.out[lo:hi])
		return
	}
	for j := lo; j < hi; j++ {
		r.out[j] = b.raw(r.item(j), r.v)
	}
}

// distances is the loop of MeasureIDs, whole or one worker's piece of
// it, and SelectVantage's candidate rows; the caller settles the
// counter. It goes through the counter's row kernel when the metric has
// one, which is exact, so the distances are those of the pair loop.
func (b *Builder[T]) distances(v T, items []T, ids []int32, out []float64) {
	if b.row != nil {
		b.row(v, items, ids, out)
		return
	}
	for i, id := range ids {
		out[i] = b.raw(items[id], v)
	}
}

// MeasureKeys is MeasureIDs that also packs the (distance, id, place)
// keys, in ids' order, into keys. The three slices are one subtree's
// ranges of a Scratch and have equal length.
func (b *Builder[T]) MeasureKeys(v T, items []T, ids []int32, dist []float64, keys []Key) {
	b.MeasureIDs(v, items, ids, dist)
	for i, id := range ids {
		keys[i] = Key{D: dist[i], ID: id, Pos: int32(i)}
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
// last slot (Last finds it before the split). The order inside a group is
// pinned too, because the next draw and the next split read it: it is
// the arrangement the quickselect of cut leaves with the swaps of
// Hoare's two-ended sweep (see sweep), a function of the keys'
// arrangement on entry and of nothing else, and a faster split must leave
// the same one or every tree changes. It requires m <= len(keys), or no
// keys at all, and allocates nothing: the caller's cutoffs are its
// tree's.
//
// That is selection, not sorting: linear in len(keys) for a fixed m.
func SplitEqual(keys []Key, cutoffs []float64) {
	if n := len(keys); n > 0 {
		splitter{keys, len(cutoffs) + 1}.cut(0, n, 4*bits.Len(uint(n)), false)
		bound(keys, cutoffs)
	}
}

// bound is the end of SplitEqual once keys are cut: the cutoffs, and the
// largest key moved last.
func bound(keys []Key, cutoffs []float64) {
	n, m := len(keys), len(cutoffs)+1
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

// Last returns the slot of the key SplitEqual would leave in the last
// slot, which is known before the split: the largest under (D, ID). It
// reports false when a distance is NaN, which no rank places: then only
// the split says which key it leaves last.
func Last(keys []Key) (int, bool) {
	top := 0
	for i, k := range keys {
		if k.D != k.D {
			return 0, false
		}
		if keys[top].less(k) {
			top = i
		}
	}
	return top, true
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
		lt := sweep(keys, a, b, p, false)
		gt := sweep(keys, lt, b, p, true)

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

// block is how many keys a sweep looks at on one side before it trades;
// an offset into a block fits a byte.
const block = 128

// sweep makes the swaps of Hoare's two-ended sweep over keys[a:b] with the
// test D < p, or with upper the test !(D > p), and returns the boundary: a
// plus the number of keys that pass. The k-th key from the left that fails
// the test trades places with the k-th key from the right that passes it,
// for as long as the first lies left of the second. Rather than stop at
// each key, which branches on random data, the sweep collects a block of
// offsets on each side with a count-add and trades them pairwise
// (BlockQuicksort, Edelkamp & Weiß 2016); once the sides meet, what one
// side has left over is traded as the two-ended sweep would go on, inside
// that side's last block. The same swaps in the same order, so the same
// arrangement.
func sweep(keys []Key, a, b int, p float64, upper bool) int {
	var left, right [block]uint8
	var ls, rs []uint8 // offsets collected and not yet traded
	l, r := a, b       // keys[a:l] and keys[r:b] are collected
	lo, hi := a, b     // the first slots of the blocks ls and rs point into
	pass := 0
	for {
		if len(ls) == 0 && l < r {
			n := min(block, r-l)
			// With upper the keys that fail are those above p.
			ls, lo = collect(keys[l:l+n], p, upper, upper, &left), l
			pass += n - len(ls)
			l += n
		}
		if len(rs) == 0 && l < r {
			n := min(block, r-l)
			r -= n
			rs, hi = collect(keys[r:r+n], p, upper, !upper, &right), r
			pass += len(rs)
		}
		k := min(len(ls), len(rs))
		for j, o := range ls[:k] {
			i, j := lo+int(o), hi+int(rs[len(rs)-1-j])
			keys[i], keys[j] = keys[j], keys[i]
		}
		ls, rs = ls[k:], rs[:len(rs)-k]
		if l == r && (len(ls) == 0 || len(rs) == 0) {
			break
		}
	}
	// The sides met. Keys the left side holds that fail go on trading with
	// the keys that pass below the meeting point, from the top down; keys
	// the right side holds that pass with the keys that fail above it, from
	// the bottom up.
	j := r - 1
	for _, o := range ls {
		i := lo + int(o)
		for j > i && test(keys[j].D, p, upper) == upper {
			j--
		}
		if j <= i {
			break
		}
		keys[i], keys[j] = keys[j], keys[i]
		j--
	}
	i := l
	for k := len(rs) - 1; k >= 0; k-- {
		j := hi + int(rs[k])
		for i < j && test(keys[i].D, p, upper) != upper {
			i++
		}
		if i >= j {
			break
		}
		keys[i], keys[j] = keys[j], keys[i]
		i++
	}
	return a + pass
}

// test is the sweeps' test: D < p, or with upper p < D.
func test(d, p float64, upper bool) bool {
	if upper {
		return p < d
	}
	return d < p
}

// collect writes to off the offsets of the keys whose test — D < p, or
// with upper p < D — comes out want, and returns them.
func collect(keys []Key, p float64, upper, want bool, off *[block]uint8) []uint8 {
	n, flip := 0, 1-b2i(want)
	if upper {
		for j := range keys {
			off[n&(block-1)] = uint8(j)
			n += b2i(p < keys[j].D) ^ flip
		}
	} else {
		for j := range keys {
			off[n&(block-1)] = uint8(j)
			n += b2i(keys[j].D < p) ^ flip
		}
	}
	return off[:n]
}

// b2i is 1 for true: a count-add, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
