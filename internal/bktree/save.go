package bktree

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"

	"mvptree/internal/metric"
	"mvptree/internal/wire"
)

// Persistence for BK-trees, in the same CRC-protected envelope as the
// other structures. Children are written in ascending key order (the
// order they are stored in) and Load requires it.

// ItemEncoder serializes one item.
type ItemEncoder[T any] func(T) ([]byte, error)

// ItemDecoder deserializes one item.
type ItemDecoder[T any] func([]byte) (T, error)

const saveMagic = "BKTREE1"

// Save writes the tree to w. The metric is not serialized; Load must be
// given the same (integer-valued) metric.
func (t *Tree[T]) Save(w io.Writer, enc ItemEncoder[T]) error {
	var payload bytes.Buffer
	pw := wire.NewWriter(&payload)
	pw.Int(t.size)
	hasRoot := t.root != nil
	pw.Bool(hasRoot)
	if hasRoot {
		if err := saveNode(pw, t.root, enc); err != nil {
			return err
		}
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
	b, err := enc(n.item)
	if err != nil {
		return fmt.Errorf("bktree: encoding item: %w", err)
	}
	w.Bytes(b)
	w.Int(len(n.keys))
	for i, k := range n.keys {
		w.Int(k)
		if err := saveNode(w, n.kids[i], enc); err != nil {
			return err
		}
	}
	return w.Err()
}

// maxLoadDepth guards against corrupt streams. BK-trees built by
// insertion can be deeper than balanced trees, so the bound is generous.
const maxLoadDepth = 4096

// Load reads a tree written by Save.
func Load[T any](r io.Reader, dist *metric.Counter[T], dec ItemDecoder[T]) (*Tree[T], error) {
	outer := wire.NewReader(r)
	if string(outer.Bytes()) != saveMagic {
		return nil, fmt.Errorf("bktree: bad magic (not a BK-tree stream)")
	}
	payload := outer.Bytes()
	sum := outer.Uvarint()
	if err := outer.Err(); err != nil {
		return nil, err
	}
	if uint64(crc32.ChecksumIEEE(payload)) != sum {
		return nil, fmt.Errorf("bktree: checksum mismatch (corrupt stream)")
	}
	rr := wire.NewReader(bytes.NewReader(payload))
	t := &Tree[T]{dist: dist}
	t.size = rr.Int()
	hasRoot := rr.Bool()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if t.size < 0 || (t.size > 0) != hasRoot {
		return nil, fmt.Errorf("bktree: corrupt header (n=%d, root=%v)", t.size, hasRoot)
	}
	if hasRoot {
		root, err := loadNode(rr, dec, 0)
		if err != nil {
			return nil, err
		}
		t.root = root
	}
	return t, nil
}

func loadNode[T any](r *wire.Reader, dec ItemDecoder[T], depth int) (*node[T], error) {
	if depth > maxLoadDepth {
		return nil, fmt.Errorf("bktree: tree deeper than %d levels (corrupt stream)", maxLoadDepth)
	}
	b := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, err
	}
	item, err := dec(b)
	if err != nil {
		return nil, fmt.Errorf("bktree: decoding item: %w", err)
	}
	n := &node[T]{item: item}
	count := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < count; i++ {
		key := r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if i > 0 && key <= n.keys[i-1] {
			return nil, fmt.Errorf("bktree: child key %d not ascending (corrupt stream)", key)
		}
		child, err := loadNode(r, dec, depth+1)
		if err != nil {
			return nil, err
		}
		n.keys = append(n.keys, key)
		n.kids = append(n.kids, child)
	}
	return n, nil
}
