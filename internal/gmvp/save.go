package gmvp

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"

	"mvptree/internal/metric"
	"mvptree/internal/wire"
)

// Persistence for the generalized tree, in the same CRC-protected
// envelope as internal/mvp: items travel through caller-supplied
// encode/decode functions; vantage points, cutoff cascades, stored
// distances and PATH prefixes are written verbatim so loading performs
// zero distance computations.

// ItemEncoder serializes one item.
type ItemEncoder[T any] func(T) ([]byte, error)

// ItemDecoder deserializes one item.
type ItemDecoder[T any] func([]byte) (T, error)

const saveMagic = "GMVPTREE1"

const (
	tagNil      = 0
	tagLeaf     = 1
	tagInternal = 2
	kindSubs    = 0
	kindChild   = 1
)

// Save writes the tree to w.
func (t *Tree[T]) Save(w io.Writer, enc ItemEncoder[T]) error {
	var payload bytes.Buffer
	pw := wire.NewWriter(&payload)
	pw.Int(t.v)
	pw.Int(t.m)
	pw.Int(t.k)
	pw.Int(t.p)
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
			return fmt.Errorf("gmvp: encoding item: %w", err)
		}
		w.Bytes(b)
		return w.Err()
	}
	writeVantages := func() error {
		w.Int(len(n.vantages))
		for _, v := range n.vantages {
			if err := item(v); err != nil {
				return err
			}
		}
		return w.Err()
	}
	if n.isLeaf() {
		w.Byte(tagLeaf)
		if err := writeVantages(); err != nil {
			return err
		}
		w.Int(len(n.items))
		for i, it := range n.items {
			if err := item(it); err != nil {
				return err
			}
			w.Int(len(n.dists))
			for j := range n.dists {
				w.Float(n.dists[j][i])
			}
			w.Floats(n.paths[i])
		}
		return w.Err()
	}
	w.Byte(tagInternal)
	if err := writeVantages(); err != nil {
		return err
	}
	return saveSplit(w, n.top, enc)
}

func saveSplit[T any](w *wire.Writer, sp *split[T], enc ItemEncoder[T]) error {
	w.Int(sp.level)
	w.Floats(sp.cutoffs)
	if sp.subs != nil {
		w.Byte(kindSubs)
		w.Int(len(sp.subs))
		for _, sub := range sp.subs {
			if err := saveSplit(w, sub, enc); err != nil {
				return err
			}
		}
		return w.Err()
	}
	w.Byte(kindChild)
	w.Int(len(sp.children))
	for _, c := range sp.children {
		if err := saveNode(w, c, enc); err != nil {
			return err
		}
	}
	return w.Err()
}

// maxLoadDepth guards against corrupt streams.
const maxLoadDepth = 96

// Load reads a tree written by Save, verifying the checksum. dist must
// wrap the same metric the tree was built with. A checksum only proves
// the payload is the one written: no count in it is trusted further than
// the bytes that back it, and the shape that loads is one the traversals
// can walk (every cascade level has a vantage point, split arity matches
// the cutoffs, leaves store one distance column per vantage point, the
// header's size is the number of items read).
func Load[T any](r io.Reader, dist *metric.Counter[T], dec ItemDecoder[T]) (*Tree[T], error) {
	outer := wire.NewReader(r)
	if string(outer.Bytes()) != saveMagic {
		return nil, fmt.Errorf("gmvp: bad magic (not a gmvp-tree stream)")
	}
	payload := outer.Bytes()
	sum := outer.Uvarint()
	if err := outer.Err(); err != nil {
		return nil, err
	}
	if uint64(crc32.ChecksumIEEE(payload)) != sum {
		return nil, fmt.Errorf("gmvp: checksum mismatch (corrupt stream)")
	}
	rr := wire.NewReader(bytes.NewReader(payload))
	t := &Tree[T]{dist: dist}
	t.v = rr.Int()
	t.m = rr.Int()
	t.k = rr.Int()
	t.p = rr.Int()
	t.size = rr.Int()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if t.v < 1 || t.m < 2 || t.k < 1 || t.p < 0 || t.size < 0 {
		return nil, fmt.Errorf("gmvp: corrupt header (v=%d m=%d k=%d p=%d n=%d)", t.v, t.m, t.k, t.p, t.size)
	}
	l := loader[T]{r: rr, dec: dec, v: t.v, left: len(payload)}
	root, err := l.node(0)
	if err != nil {
		return nil, err
	}
	if l.items != t.size {
		return nil, fmt.Errorf("gmvp: header says %d items, stream holds %d (corrupt stream)", t.size, l.items)
	}
	// A PATH has one entry per ancestor vantage point, each a different
	// item of the tree, and p sizes the query scratch.
	t.p = min(t.p, t.size)
	t.root = root
	return t, nil
}

// loader is the state of one Load.
type loader[T any] struct {
	r     *wire.Reader
	dec   ItemDecoder[T]
	v     int
	left  int // payload bytes no count has claimed yet
	items int // items decoded so far, vantage points included
}

// claim charges count groups of each elements about to be allocated
// against the payload. Every element is backed by at least one byte of
// its own, so the counts of a stream Save wrote never add up to more
// than its length; one that asks for more is refused before the
// allocation.
func (l *loader[T]) claim(count, each int) error {
	if count > l.left/each {
		return fmt.Errorf("gmvp: count %d exceeds the bytes left in the payload (corrupt stream)", count)
	}
	l.left -= count * each
	return nil
}

func (l *loader[T]) item() (it T, err error) {
	b := l.r.Bytes()
	if err = l.r.Err(); err == nil {
		if it, err = l.dec(b); err != nil {
			err = fmt.Errorf("gmvp: decoding item: %w", err)
		}
	}
	l.items++
	return it, err
}

func (l *loader[T]) vantages() ([]T, error) {
	count := l.r.Int()
	if err := l.r.Err(); err != nil {
		return nil, err
	}
	if count > l.v {
		return nil, fmt.Errorf("gmvp: node claims %d vantage points, tree allows %d", count, l.v)
	}
	if err := l.claim(count, 1); err != nil {
		return nil, err
	}
	vs := make([]T, count)
	var err error
	for i := range vs {
		if vs[i], err = l.item(); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

func (l *loader[T]) node(depth int) (*node[T], error) {
	if depth > maxLoadDepth {
		return nil, fmt.Errorf("gmvp: tree deeper than %d levels (corrupt stream)", maxLoadDepth)
	}
	r := l.r
	switch tag := r.Byte(); tag {
	case tagNil:
		return nil, r.Err()
	case tagLeaf:
		n := &node[T]{}
		var err error
		if n.vantages, err = l.vantages(); err != nil {
			return nil, err
		}
		count := r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if count == 0 {
			return n, nil
		}
		// An item brings one element to items, to paths and to each
		// distance column.
		cols := len(n.vantages)
		if err := l.claim(count, 2+cols); err != nil {
			return nil, err
		}
		n.items = make([]T, count)
		n.paths = make([][]float64, count)
		n.dists = make([][]float64, cols)
		for j := range n.dists {
			n.dists[j] = make([]float64, count)
		}
		for i := 0; i < count; i++ {
			if n.items[i], err = l.item(); err != nil {
				return nil, err
			}
			if got := r.Int(); got != cols && r.Err() == nil {
				return nil, fmt.Errorf("gmvp: %d distance columns for %d vantage points (corrupt stream)", got, cols)
			}
			for j := 0; j < cols; j++ {
				n.dists[j][i] = r.Float()
			}
			n.paths[i] = r.Floats()
		}
		return n, r.Err()
	case tagInternal:
		n := &node[T]{}
		var err error
		if n.vantages, err = l.vantages(); err != nil {
			return nil, err
		}
		n.top, err = l.split(len(n.vantages), depth)
		return n, err
	default:
		return nil, fmt.Errorf("gmvp: unknown node tag %d (corrupt stream)", tag)
	}
}

// split reads one level of the cascade of a node with nv vantage points.
func (l *loader[T]) split(nv, depth int) (*split[T], error) {
	if depth > maxLoadDepth {
		return nil, fmt.Errorf("gmvp: cascade deeper than %d levels (corrupt stream)", maxLoadDepth)
	}
	r := l.r
	sp := &split[T]{}
	sp.level = r.Int()
	sp.cutoffs = r.Floats()
	kind := r.Byte()
	count := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if sp.level >= nv {
		return nil, fmt.Errorf("gmvp: split level %d of a node with %d vantage points (corrupt stream)", sp.level, nv)
	}
	// Slot g covers the shell between cutoffs g-1 and g, so the cutoffs
	// already read bound the count.
	if count != len(sp.cutoffs)+1 {
		return nil, fmt.Errorf("gmvp: %d shells for %d cutoffs (corrupt stream)", count, len(sp.cutoffs))
	}
	var err error
	switch kind {
	case kindSubs:
		sp.subs = make([]*split[T], count)
		for i := range sp.subs {
			if sp.subs[i], err = l.split(nv, depth+1); err != nil {
				return nil, err
			}
		}
	case kindChild:
		sp.children = make([]*node[T], count)
		for i := range sp.children {
			if sp.children[i], err = l.node(depth + 1); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("gmvp: unknown split kind %d (corrupt stream)", kind)
	}
	return sp, nil
}
