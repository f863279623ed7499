package mvp

import (
	"slices"
	"unsafe"
)

// The point arena holds every point the tree holds: the leaf items in
// leaf order, item i of leaf n at slot n.off+i, then v vantage slots a
// node, node i's j-th at slot leafItems + i·v + j (Tree.vpSlot). A node
// with fewer than v vantage points — a leaf of one point — leaves the rest
// of its slots empty: nil in the pointer layouts, the zero T in the plain
// one. No reader takes an empty slot, and the rule ignores them (hole).
// The points alone decide how the slots are held (layoutOf), as settle
// decides the filter's code width from the codes:
//
//   - vectorLayout: T is []float64 and every point has len == cap == d for
//     one d ≥ 1. A slot is a pointer to the point's first element, and
//     the arena keeps d once: 8 bytes a point where the header is 24.
//   - stringLayout: T is string and no point is longer than
//     maxShortString bytes. A slot is a pointer to the point's bytes, nil
//     for an empty string, and a length byte: 9 bytes a point where the
//     header is 16.
//   - plainLayout: everything else — other types, named vector types,
//     vectors with spare capacity or of mixed lengths, longer strings —
//     is held as the []T it was given.
//
// at rebuilds point i's header: a vector's from its pointer and d, which
// is the caller's own since len == cap, a string's from its pointer and
// length. The pointers are ordinary pointers into the points' own backing
// arrays, so the collector keeps alive what the headers kept alive, and
// an empty point stores none, so none points one past an allocation. A
// vector arena may own its points (Tree.Own): it copies them into one
// []float64 block, point after point in slot order, and points its slots
// there, so they stay vector slots that the leaf scans read as a loaded
// tree's. This file is the only one that knows the layouts; every other
// reader takes a point through at, a leaf scan through its leaf's span.
type itemArena[T any] struct {
	plain []T
	ptrs  []unsafe.Pointer
	lens  []uint8
	// block is what the slots point into once the arena owns its points,
	// nil before; it is kept to be counted (ownedBytes).
	block  []float64
	dim    int
	layout itemLayout
}

type itemLayout uint8

const (
	plainLayout itemLayout = iota
	vectorLayout
	stringLayout
)

// maxShortString is the longest string stringLayout holds: its length is
// a byte.
const maxShortString = 255

// layoutOf is the layout the rule gives the points xs, hole(i) reporting
// the empty slots it ignores (nil: none), and for vectors their one
// length. No points keep the plain layout.
func layoutOf[T any](xs []T, hole func(int) bool) (itemLayout, int) {
	switch xs := any(xs).(type) {
	case [][]float64:
		d := 0
		for i, x := range xs {
			if hole != nil && hole(i) {
				continue
			}
			if d == 0 {
				d = len(x)
			}
			if len(x) != d || cap(x) != d || d == 0 {
				return plainLayout, 0
			}
		}
		if d > 0 {
			return vectorLayout, d
		}
	case []string:
		for _, x := range xs {
			if len(x) > maxShortString {
				return plainLayout, 0
			}
		}
		if len(xs) > 0 {
			return stringLayout, 0
		}
	}
	return plainLayout, 0
}

// itemsOf holds xs in the layout the rule gives it, hole(i) reporting its
// empty slots; a plain arena is xs itself, cloned when it has spare
// capacity. A build and Load both hold their points this way once all are
// placed.
func itemsOf[T any](xs []T, hole func(int) bool) itemArena[T] {
	layout, dim := layoutOf(xs, hole)
	a := itemArena[T]{layout: layout, dim: dim}
	switch layout {
	case plainLayout:
		if cap(xs) > len(xs) {
			xs = slices.Clone(xs)
		}
		a.plain = xs
		return a
	case stringLayout:
		a.lens = make([]uint8, len(xs))
	}
	// An empty slot's vector is nil and its string "", whose data
	// pointers are nil.
	a.ptrs = make([]unsafe.Pointer, len(xs))
	for i := range xs {
		switch x := unsafe.Pointer(&xs[i]); layout {
		case vectorLayout:
			a.ptrs[i] = unsafe.Pointer(unsafe.SliceData(*(*[]float64)(x)))
		case stringLayout:
			if s := *(*string)(x); len(s) > 0 {
				a.ptrs[i], a.lens[i] = unsafe.Pointer(unsafe.StringData(s)), uint8(len(s))
			}
		}
	}
	return a
}

// own copies a vector arena's points into one block of its own, point
// after point in slot order, and points the slots there; an empty slot
// stays nil. The slots are new, so an arena sharing the old ones
// (Tree.Clone) reads what it read. It reports whether a was a vector
// arena that did not own its points yet.
func (a *itemArena[T]) own() bool {
	if a.layout != vectorLayout || a.block != nil {
		return false
	}
	d, held := a.dim, 0
	for _, p := range a.ptrs {
		if p != nil {
			held++
		}
	}
	block, ptrs := make([]float64, 0, held*d), make([]unsafe.Pointer, len(a.ptrs))
	for i, p := range a.ptrs {
		if p != nil {
			block = append(block, unsafe.Slice((*float64)(p), d)...)
			ptrs[i] = unsafe.Pointer(&block[len(block)-d])
		}
	}
	a.ptrs, a.block = ptrs, block
	return true
}

// at returns the point in slot i. A layout is only tested where T is the
// size of its points, which the compiler knows in each instantiation: the
// scan over ints or pointers reads the plain arena with no test at all,
// the scan over vectors holds no string path and the reverse.
func (a *itemArena[T]) at(i int) T {
	switch size := unsafe.Sizeof(*new(T)); {
	case size == unsafe.Sizeof([]float64(nil)) && a.layout == vectorLayout:
		v := unsafe.Slice((*float64)(a.ptrs[i]), a.dim)
		return *(*T)(unsafe.Pointer(&v))
	case size == unsafe.Sizeof("") && a.layout == stringLayout:
		s := unsafe.String((*byte)(a.ptrs[i]), a.lens[i])
		return *(*T)(unsafe.Pointer(&s))
	}
	return a.plain[i]
}

// span returns slots [off, off+n) as an arena of their own, which a leaf
// scan holds in its frame: no candidate reads the tree's arena again.
func (a *itemArena[T]) span(off, n int) itemArena[T] {
	s := itemArena[T]{dim: a.dim, layout: a.layout}
	switch a.layout {
	case plainLayout:
		s.plain = a.plain[off : off+n]
	case stringLayout:
		s.lens = a.lens[off : off+n]
		fallthrough
	default:
		s.ptrs = a.ptrs[off : off+n]
	}
	return s
}

// len is the number of slots.
func (a *itemArena[T]) len() int { return len(a.plain) + len(a.ptrs) }

// bytes is what the arena holds in its slots.
func (a *itemArena[T]) bytes() int {
	return len(a.plain)*int(unsafe.Sizeof(*new(T))) + len(a.ptrs)*int(unsafe.Sizeof(unsafe.Pointer(nil))) + len(a.lens)
}

// ownedBytes is the owned block's size, 0 for an arena that does not own
// its points.
func (a *itemArena[T]) ownedBytes() int { return len(a.block) * int(unsafe.Sizeof(float64(0))) }

// first returns the points in slots [0, n) — the leaf items, taken with
// n = Tree.leafItems — as a []T: a view of a plain arena, or the headers
// rebuilt into a []T of their own, which the caller may drop. Slots
// below n are never empty.
func (a *itemArena[T]) first(n int) []T {
	if a.layout == plainLayout {
		return a.plain[:n:n]
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = a.at(i)
	}
	return xs
}

// Own copies every point of t into one []float64 block the tree owns, in
// slot order — the leaf items in leaf order, then the vantage points —
// and points its slots there, so that a leaf scan reads memory laid out
// as a loaded tree's through the same slots as before, and t no
// longer refers to any vector its caller handed it: no leaf item, vantage
// point or cascade pivot (those are copied into a block of their own).
// It reports whether it packed t. It packs vector trees alone, those
// whose points are []float64 of one length d ≥ 1 with no spare capacity
// (items.go), and returns false, changing nothing, for any other tree,
// for a tree already owned and for an empty one.
//
// The copy costs 8·d bytes a point beside the caller's vectors, unless
// the caller drops those: the library never calls it; a daemon that
// generated its items and keeps nothing else of them does. Nothing a
// query answers, counts or reports changes, nor what Save writes; Remove,
// EnableCascade and EnableQuantize work as before. The vectors a query or
// Items returns afterwards alias the tree's block, each with cap == d, so
// an append to one copies it rather than overwriting its neighbour; the
// caller must not write into them. Own is not synchronized with queries:
// call it before serving, as EnableQuantize.
func (t *Tree[T]) Own() bool {
	if !t.items.own() {
		return false
	}
	// The pivots go into a slice of their own, so a clone's Own (Clone)
	// writes nothing the tree it was cloned from reads.
	if pv, ok := any(t.cpivots).([][]float64); ok && len(pv) > 0 {
		d := t.items.dim
		block, owned := make([]float64, len(pv)*d), make([][]float64, len(pv))
		for j, p := range pv {
			owned[j] = block[j*d : (j+1)*d : (j+1)*d]
			copy(owned[j], p)
		}
		t.cpivots = any(owned).([]T)
	}
	return true
}
