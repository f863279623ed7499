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

// maxWorkers is the most build workers Load takes a header's word for:
// construction sizes its pool by the number, so a corrupt one would cost
// the next rebuild gigabytes.
const maxWorkers = 1 << 12

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
// RandomFirstVantage existed read as that switch unset. The options say
// how the store's next rebuild builds; the tree in the stream is loaded
// as saved, and a rebuild of the same items under the same options is
// another draw, not that tree again.
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

// idDecoder decodes the inner tree's items for a table of len(seen)
// entries, refusing an ID the table does not have or the tree has
// already used: a tree that loads through it holds each ID at most once.
func idDecoder(seen []bool) mvp.ItemDecoder[int] {
	return func(b []byte) (int, error) {
		u, n := binary.Uvarint(b)
		if n <= 0 || n != len(b) {
			return 0, fmt.Errorf("dynamic: invalid ID encoding")
		}
		if u >= uint64(len(seen)) || seen[u] {
			return 0, fmt.Errorf("dynamic: tree item %d is repeated or not in the table of %d (corrupt stream)", u, len(seen))
		}
		seen[u] = true
		return int(u), nil
	}
}

// Load reads a store written by Save. dist must be the same metric the
// store was built with. As in mvp.Load, the checksum only proves the
// payload is the one written: the item count is charged against the
// payload's length before anything is allocated for it, the inner tree's
// items must be the table's IDs, each once, and the options header must
// be the one that built that tree — so the next rebuild is handed nothing
// Load did not check.
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
	if !validFraction(s.opts.RebuildFraction) {
		return nil, fmt.Errorf("dynamic: rebuild fraction %g (corrupt stream)", s.opts.RebuildFraction)
	}
	if count > len(payload) { // an item is a byte of the payload at least
		return nil, fmt.Errorf("dynamic: %d items announced in a %d-byte payload (corrupt stream)", count, len(payload))
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
	tree, err := mvp.Load(bytes.NewReader(treeBytes), s.dist, idDecoder(make([]bool, count)))
	if err != nil {
		return nil, err
	}
	if tree.Len() != count {
		return nil, fmt.Errorf("dynamic: tree holds %d items, table %d (corrupt stream)", tree.Len(), count)
	}
	// The header does not say how many vantage points a node has; the
	// tree does. What it does say has to validate and come to the
	// parameters of the tree it built: a tree over nothing, which costs
	// nothing once the worker pool is bounded, shows what mvp.New makes
	// of it.
	s.opts.Tree.Vantages = tree.Vantages()
	if s.opts.Tree.Workers > maxWorkers {
		return nil, fmt.Errorf("dynamic: %d build workers (corrupt stream)", s.opts.Tree.Workers)
	}
	built, err := mvp.New[int](nil, s.dist, s.opts.Tree)
	if err != nil {
		return nil, fmt.Errorf("%w (corrupt stream)", err)
	}
	if built.Partitions() != tree.Partitions() || built.LeafCapacity() != tree.LeafCapacity() || built.PathLength() != tree.PathLength() {
		return nil, fmt.Errorf("dynamic: tree options m=%d k=%d p=%d, tree built with m=%d k=%d p=%d (corrupt stream)",
			built.Partitions(), built.LeafCapacity(), built.PathLength(), tree.Partitions(), tree.LeafCapacity(), tree.PathLength())
	}
	s.tree = tree
	s.treeIDs = count
	s.rebuilds = 1
	return s, nil
}
