package mvp

import "mvptree/internal/index"

// A tree over a set that changes — the dynamic store's, whose deleted
// items stay in the tree until its next rebuild — holds tombstones: one
// bit per slot of the point arena: a leaf item's position, or the leaf
// item count + node·v + j for the j-th vantage point of a node (vpSlot). A
// tombstoned item is in no answer of any query: Search's range and kNN,
// SearchBatch, RangeFarther, KFarthest and Items. A tombstoned leaf item
// is never measured; a tombstoned vantage point is measured where the
// descent needs its distance, and then not reported. A tree Remove never
// ran on carries no bitset, and every query runs exactly as it would
// without tombstones.
//
// Both functions here are package-level rather than methods so the
// facade's Tree alias does not publish them.

// Remove tombstones every item of t at distance zero from q that is not
// tombstoned already, and reports how many it tombstoned. It is the range
// query at r = 0 — it measures exactly what Search(RangeQuery(q, 0))
// measures, and reports to t's hooks as that query — but tombstones each
// match instead of returning it. Len still counts tombstoned items, and
// Save refuses a tree that holds any. Remove must not run beside any
// other query on t.
func Remove[T any](t *Tree[T], q T) int {
	if t.dead == nil {
		t.dead = make(bitset, (t.items.len()+63)/64)
	}
	before := t.tombs
	var m member[T]
	if t.startRange(&m, q, 0, index.SearchOptions{}) {
		m.sc.remove = true
		t.rangeNode(0, q, 0, m.rp, 0, m.sc, &m.out, &m.s)
		m.sc.remove = false
	}
	t.finishRange(&m)
	return t.tombs - before
}

// RootPoints returns the vantage points of t's root, one or two, or
// nothing for an empty tree, in a slice of their own. They are items of
// t, tombstoned or not, and the caller must not modify them.
func RootPoints[T any](t *Tree[T]) []T {
	if len(t.nodes) == 0 {
		return nil
	}
	return t.vantages(0)
}

// bitset is one bit per slot.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// keeps reports whether the item in slot may be reported: t holds no
// tombstones, or none in slot.
func (t *Tree[T]) keeps(slot int) bool { return t.dead == nil || !t.dead.has(slot) }

// accept is where a range query reports the item x in slot: it appends x
// to out, or, in a Remove, tombstones the slot.
func (t *Tree[T]) accept(sc *queryScratch[T], out *[]T, x T, slot int) {
	if sc.remove {
		t.dead[slot>>6] |= 1 << (slot & 63)
		t.tombs++
		return
	}
	*out = append(*out, x)
}
