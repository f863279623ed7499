package mvp

import (
	"slices"
	"unsafe"
)

// The leaf-item arena holds every leaf item in leaf order, item i of
// leaf n at slot n.off+i, in one of three layouts that the items alone
// decide (layoutOf), as settle decides the filter's code width from the
// codes:
//
//   - vectorLayout: T is []float64 and every leaf item has len == cap == d
//     for one d ≥ 1. A slot is a pointer to the item's first element, and
//     the arena keeps d once: 8 bytes an item where the header is 24.
//   - stringLayout: T is string and no leaf item is longer than
//     maxShortString bytes. A slot is a pointer to the item's bytes, nil
//     for an empty string, and a length byte: 9 bytes an item where the
//     header is 16.
//   - plainLayout: everything else — other types, named vector types,
//     vectors with spare capacity or of mixed lengths, longer strings —
//     is held as the []T it was given.
//
// at rebuilds item i's header: a vector's from its pointer and d, which
// is the caller's own since len == cap, a string's from its pointer and
// length. The pointers are ordinary pointers into the items' own backing
// arrays, so the collector keeps alive what the headers kept alive, and
// an empty item stores none, so none points one past an allocation. This
// file is the only one that knows the layouts; every other reader takes
// an item through at, a leaf scan through its leaf's span.
type itemArena[T any] struct {
	plain  []T
	ptrs   []unsafe.Pointer
	lens   []uint8
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

// layoutOf is the layout the rule gives the items xs, and for vectors
// their one length. No items keep the plain layout.
func layoutOf[T any](xs []T) (itemLayout, int) {
	switch xs := any(xs).(type) {
	case [][]float64:
		if len(xs) == 0 || len(xs[0]) == 0 {
			return plainLayout, 0
		}
		d := len(xs[0])
		for _, x := range xs {
			if len(x) != d || cap(x) != d {
				return plainLayout, 0
			}
		}
		return vectorLayout, d
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

// itemsOf holds xs in the layout the rule gives it; a plain arena is xs
// itself, cloned when it has spare capacity. A build and Load both hold
// their leaf items this way once all are placed.
func itemsOf[T any](xs []T) itemArena[T] {
	layout, dim := layoutOf(xs)
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

// at returns the item in slot i. A layout is only tested where T is the
// size of its items, which the compiler knows in each instantiation: the
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

// all returns every item in slot order: the plain arena itself, or the
// headers rebuilt into a []T of their own, which the caller may drop.
func (a *itemArena[T]) all() []T {
	if a.layout == plainLayout {
		return a.plain
	}
	xs := make([]T, a.len())
	for i := range xs {
		xs[i] = a.at(i)
	}
	return xs
}
