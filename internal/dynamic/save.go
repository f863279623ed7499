package dynamic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/wire"
)

// Persistence for the dynamic store. Save first compacts the store (a
// rebuild, dropping tombstones and folding the overflow buffer into the
// tree) and then writes the item table followed by the inner mvp-tree,
// so Load restores a clean store with zero distance computations.

// ItemEncoder serializes one item.
type ItemEncoder[T any] func(T) ([]byte, error)

// ItemDecoder deserializes one item.
type ItemDecoder[T any] func([]byte) (T, error)

const saveMagic = "MVPDYN1"

// Save compacts the store and writes it to w. Note the compaction: Save
// is a mutating operation (equivalent to a rebuild), which is also what
// makes the saved form simple — pure tree, no buffer, no tombstones.
// Like Insert and Delete it takes the write lock, excluding queries for
// its duration.
func (s *Store[T]) Save(w io.Writer, enc ItemEncoder[T]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.rebuild(); err != nil {
		return err
	}
	var payload bytes.Buffer
	pw := wire.NewWriter(&payload)
	pw.Float(s.opts.RebuildFraction)
	saveTreeOptions(pw, s.opts.Tree)
	pw.Uvarint(s.seq)
	pw.Int(len(s.items))
	for _, it := range s.items {
		b, err := enc(it)
		if err != nil {
			return fmt.Errorf("dynamic: encoding item: %w", err)
		}
		pw.Bytes(b)
	}
	// The inner tree indexes IDs; persist it with a varint ID codec as
	// a length-prefixed blob inside the payload.
	var treeBytes bytes.Buffer
	if err := s.tree.Save(&treeBytes, encodeIDItem); err != nil {
		return err
	}
	pw.Bytes(treeBytes.Bytes())
	if err := pw.Flush(); err != nil {
		return err
	}
	ww := wire.NewWriter(w)
	ww.Bytes([]byte(saveMagic))
	ww.Bytes(payload.Bytes())
	ww.Uvarint(uint64(crc32.ChecksumIEEE(payload.Bytes())))
	return ww.Flush()
}

// The vantage-selection switches share the byte that was a bool for
// RandomSecondVantage alone, so streams written before
// RandomFirstVantage existed read as that switch unset.
const (
	flagRandomSV2 = 1 << iota
	flagRandomSV1
)

func saveTreeOptions(w *wire.Writer, o mvp.Options) {
	w.Int(o.Partitions)
	w.Int(o.LeafCapacity)
	// PathLength uses -1 as "genuine zero"; shift to keep it varint-able.
	w.Int(o.PathLength + 1)
	var flags byte
	if o.RandomSecondVantage {
		flags |= flagRandomSV2
	}
	if o.RandomFirstVantage {
		flags |= flagRandomSV1
	}
	w.Byte(flags)
	w.Int(o.Workers)
	w.Uvarint(o.Seed)
}

func loadTreeOptions(r *wire.Reader) mvp.Options {
	var o mvp.Options
	o.Partitions = r.Int()
	o.LeafCapacity = r.Int()
	o.PathLength = r.Int() - 1
	flags := r.Byte()
	o.RandomSecondVantage = flags&flagRandomSV2 != 0
	o.RandomFirstVantage = flags&flagRandomSV1 != 0
	o.Workers = r.Int()
	o.Seed = r.Uvarint()
	return o
}

func encodeIDItem(id int) ([]byte, error) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(id))
	return buf[:n], nil
}

func decodeIDItem(b []byte) (int, error) {
	u, n := binary.Uvarint(b)
	if n <= 0 || n != len(b) {
		return 0, fmt.Errorf("dynamic: invalid ID encoding")
	}
	return int(u), nil
}

// Load reads a store written by Save. dist must be the same metric the
// store was built with.
func Load[T any](r io.Reader, dist metric.DistanceFunc[T], dec ItemDecoder[T]) (*Store[T], error) {
	outer := wire.NewReader(r)
	if string(outer.Bytes()) != saveMagic {
		return nil, fmt.Errorf("dynamic: bad magic (not a dynamic-store stream)")
	}
	payload := outer.Bytes()
	sum := outer.Uvarint()
	if err := outer.Err(); err != nil {
		return nil, err
	}
	if uint64(crc32.ChecksumIEEE(payload)) != sum {
		return nil, fmt.Errorf("dynamic: checksum mismatch (corrupt stream)")
	}
	rr := wire.NewReader(bytes.NewReader(payload))

	s := &Store[T]{}
	s.bindMetric(dist)
	s.opts.RebuildFraction = rr.Float()
	s.opts.Tree = loadTreeOptions(rr)
	s.seq = rr.Uvarint()
	count := rr.Int()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if s.opts.RebuildFraction <= 0 {
		return nil, fmt.Errorf("dynamic: corrupt header (rebuild fraction %g)", s.opts.RebuildFraction)
	}
	s.items = make([]T, count)
	s.alive = make([]bool, count)
	for i := 0; i < count; i++ {
		b := rr.Bytes()
		if err := rr.Err(); err != nil {
			return nil, err
		}
		it, err := dec(b)
		if err != nil {
			return nil, fmt.Errorf("dynamic: decoding item: %w", err)
		}
		s.items[i] = it
		s.alive[i] = true
	}
	s.live = count

	treeBytes := rr.Bytes()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	tree, err := mvp.Load(bytes.NewReader(treeBytes), s.dist, decodeIDItem)
	if err != nil {
		return nil, err
	}
	if tree.Len() != count {
		return nil, fmt.Errorf("dynamic: tree holds %d items, table %d", tree.Len(), count)
	}
	s.tree = tree
	s.treeIDs = count
	s.rebuilds = 1
	return s, nil
}
