package vptree

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"

	"mvptree/internal/metric"
	"mvptree/internal/wire"
)

// Persistence for vp-trees, mirroring the mvp-tree's Save/Load: items
// go through caller-supplied encode/decode functions, the structure
// (vantage points, cutoffs, buckets) is stored verbatim, and no
// distances are recomputed on load.

// ItemEncoder serializes one item.
type ItemEncoder[T any] func(T) ([]byte, error)

// ItemDecoder deserializes one item.
type ItemDecoder[T any] func([]byte) (T, error)

const saveMagic = "VPTREE1"

const (
	tagNil      = 0
	tagLeaf     = 1
	tagInternal = 2
)

// Save writes the tree to w as a CRC-protected payload. The metric
// itself is not serialized; Load must be given the same metric.
func (t *Tree[T]) Save(w io.Writer, enc ItemEncoder[T]) error {
	var payload bytes.Buffer
	pw := wire.NewWriter(&payload)
	pw.Int(t.order)
	pw.Int(t.size)
	if err := saveNode(pw, t.root, enc); err != nil {
		return err
	}
	if err := pw.Flush(); err != nil {
		return err
	}
	ww := wire.NewWriter(w)
	ww.Bytes([]byte(saveMagic))
	ww.Bytes(payload.Bytes())
	ww.Uvarint(uint64(crc32.ChecksumIEEE(payload.Bytes())))
	return ww.Flush()
}

func saveNode[T any](w *wire.Writer, n *node[T], enc ItemEncoder[T]) error {
	if n == nil {
		w.Byte(tagNil)
		return w.Err()
	}
	item := func(it T) error {
		b, err := enc(it)
		if err != nil {
			return fmt.Errorf("vptree: encoding item: %w", err)
		}
		w.Bytes(b)
		return w.Err()
	}
	if n.leaf {
		w.Byte(tagLeaf)
		w.Int(len(n.items))
		for _, it := range n.items {
			if err := item(it); err != nil {
				return err
			}
		}
		return w.Err()
	}
	w.Byte(tagInternal)
	if err := item(n.vantage); err != nil {
		return err
	}
	w.Floats(n.cutoffs)
	w.Int(len(n.children))
	for _, c := range n.children {
		if err := saveNode(w, c, enc); err != nil {
			return err
		}
	}
	return w.Err()
}

// maxLoadDepth guards against corrupt streams.
const maxLoadDepth = 128

// Load reads a tree written by Save, verifying the payload checksum.
// dist must wrap the same metric the tree was built with. A checksum
// only proves the payload is the one written: no count in it is trusted
// further than the bytes that back it, and the shape that loads is one
// the traversals can walk (child arity matches the cutoffs, the header's
// size is the number of items read).
func Load[T any](r io.Reader, dist *metric.Counter[T], dec ItemDecoder[T]) (*Tree[T], error) {
	outer := wire.NewReader(r)
	if string(outer.Bytes()) != saveMagic {
		return nil, fmt.Errorf("vptree: bad magic (not a vp-tree stream)")
	}
	payload := outer.Bytes()
	sum := outer.Uvarint()
	if err := outer.Err(); err != nil {
		return nil, err
	}
	if uint64(crc32.ChecksumIEEE(payload)) != sum {
		return nil, fmt.Errorf("vptree: checksum mismatch (corrupt stream)")
	}
	rr := wire.NewReader(bytes.NewReader(payload))
	t := &Tree[T]{dist: dist}
	t.order = rr.Int()
	t.size = rr.Int()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if t.order < 2 || t.size < 0 {
		return nil, fmt.Errorf("vptree: corrupt header (order=%d n=%d)", t.order, t.size)
	}
	l := loader[T]{r: rr, dec: dec, order: t.order, left: len(payload)}
	root, err := l.node(0)
	if err != nil {
		return nil, err
	}
	if l.items != t.size {
		return nil, fmt.Errorf("vptree: header says %d items, stream holds %d (corrupt stream)", t.size, l.items)
	}
	t.root = root
	return t, nil
}

// loader is the state of one Load.
type loader[T any] struct {
	r     *wire.Reader
	dec   ItemDecoder[T]
	order int
	left  int // payload bytes no count has claimed yet
	items int // items decoded so far, vantage points included
}

// claim charges count elements about to be allocated against the
// payload. Every element is backed by at least one byte of its own, so
// the counts of a stream Save wrote never add up to more than its
// length; one that asks for more is refused before the allocation.
func (l *loader[T]) claim(count int) error {
	if count > l.left {
		return fmt.Errorf("vptree: count %d exceeds the bytes left in the payload (corrupt stream)", count)
	}
	l.left -= count
	return nil
}

func (l *loader[T]) item() (it T, err error) {
	b := l.r.Bytes()
	if err = l.r.Err(); err == nil {
		if it, err = l.dec(b); err != nil {
			err = fmt.Errorf("vptree: decoding item: %w", err)
		}
	}
	l.items++
	return it, err
}

func (l *loader[T]) node(depth int) (*node[T], error) {
	if depth > maxLoadDepth {
		return nil, fmt.Errorf("vptree: tree deeper than %d levels (corrupt stream)", maxLoadDepth)
	}
	r := l.r
	switch tag := r.Byte(); tag {
	case tagNil:
		return nil, r.Err()
	case tagLeaf:
		count := r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if err := l.claim(count); err != nil {
			return nil, err
		}
		n := &node[T]{leaf: true, items: make([]T, count)}
		var err error
		for i := 0; i < count; i++ {
			if n.items[i], err = l.item(); err != nil {
				return nil, err
			}
		}
		return n, r.Err()
	case tagInternal:
		n := &node[T]{}
		var err error
		if n.vantage, err = l.item(); err != nil {
			return nil, err
		}
		n.cutoffs = r.Floats()
		count := r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		// Child g covers the shell between cutoffs g-1 and g, so the
		// cutoffs already read bound the count.
		if count != len(n.cutoffs)+1 || count > l.order {
			return nil, fmt.Errorf("vptree: %d children for %d cutoffs at order %d (corrupt stream)", count, len(n.cutoffs), l.order)
		}
		n.children = make([]*node[T], count)
		for i := 0; i < count; i++ {
			if n.children[i], err = l.node(depth + 1); err != nil {
				return nil, err
			}
		}
		n.setDerived()
		return n, r.Err()
	default:
		return nil, fmt.Errorf("vptree: unknown node tag %d (corrupt stream)", tag)
	}
}
