package dynamic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/wire"
)

// Persistence for the dynamic store. Save first compacts the store (a
// rebuild, dropping tombstones and folding the overflow buffer into the
// tree, when there are any) and then writes the options the next rebuild
// needs and the tree, so Load restores a clean store with zero distance
// computations. The price of the loaded store's next rebuild is what
// building its tree would measure (mvp.BuildDistances), and its waste
// starts at zero, as after a build.

// ItemEncoder serializes one item.
type ItemEncoder[T any] func(T) ([]byte, error)

// ItemDecoder deserializes one item.
type ItemDecoder[T any] func([]byte) (T, error)

// Save writes saveMagic: a header and an ordinary mvp-tree stream over the
// caller's encoded items. Load also reads loadMagicV1, written while the
// store indexed integer IDs: an item table, then a tree stream over
// positions in it (docs/FORMAT.md).
const (
	saveMagic   = "MVPDYN2"
	loadMagicV1 = "MVPDYN1"
)

// reserved is what Save writes in the payload's first field, which held
// a rebuild fraction while the store rebuilt at one; Load checks it is a
// number such a store took, and ignores it.
const reserved = 0.25

// maxWorkers is the most build workers Load takes a v1 header's word for:
// construction sizes its pool by the number, so a corrupt one would cost
// the next rebuild gigabytes.
const maxWorkers = 1 << 12

// Save compacts the store and writes it to w. Note the compaction: Save
// is a mutating operation (a rebuild, unless the store is a tree and
// nothing else already), which is also what makes the saved form simple
// — pure tree, no buffer, no tombstones. A store just loaded has nothing
// to compact, and saves as the stream it was loaded from. Like Insert and
// Delete, Save takes the write lock, excluding queries for its duration.
func (s *Store[T]) Save(w io.Writer, enc ItemEncoder[T]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buffer)+s.treeDead > 0 {
		if err := s.rebuild(); err != nil {
			return err
		}
	}
	var tree bytes.Buffer
	if err := s.tree.Save(&tree, mvp.ItemEncoder[T](enc)); err != nil {
		return err
	}
	var payload bytes.Buffer
	pw := wire.NewWriter(&payload)
	pw.Float(reserved)
	// The options say how the store's next rebuild builds, as the caller
	// spelled them but for v, which is the tree's: k and p use -1 as
	// "genuine zero" and are shifted to keep them varint-able. Workers is
	// left out, being a knob of the machine that built and not of the
	// store. The tree in the stream is loaded as saved; a rebuild of the
	// same items under the same options is another draw, not that tree
	// again.
	o := s.opts.Tree
	pw.Int(o.Partitions)
	pw.Int(o.LeafCapacity + 1)
	pw.Int(o.PathLength + 1)
	pw.Int(s.tree.Vantages())
	var flags byte
	if o.RandomSecondVantage {
		flags |= flagRandomSV2
	}
	if o.RandomFirstVantage {
		flags |= flagRandomSV1
	}
	pw.Byte(flags)
	pw.Uvarint(o.Seed)
	pw.Uvarint(s.seq)
	pw.Bytes(tree.Bytes())
	if err := pw.Flush(); err != nil {
		return err
	}
	ww := wire.NewWriter(w)
	ww.Bytes([]byte(saveMagic))
	ww.Bytes(payload.Bytes())
	ww.Uvarint(uint64(crc32.ChecksumIEEE(payload.Bytes())))
	return ww.Flush()
}

// The vantage-selection switches share a byte, which in the oldest v1
// streams was a bool for RandomSecondVantage alone: those read as
// RandomFirstVantage unset.
const (
	flagRandomSV2 = 1 << iota
	flagRandomSV1
)

func setFlags(o *mvp.Options, flags byte) {
	o.RandomSecondVantage = flags&flagRandomSV2 != 0
	o.RandomFirstVantage = flags&flagRandomSV1 != 0
}

// Load reads a store written by Save. dist must be the same metric the
// store was built with. As in mvp.Load, the checksum only proves the
// payload is the one written: the reserved field must be a fraction a
// store once took, and the options header must be the one that built the
// tree beside it — so the next rebuild is handed nothing Load did not
// check.
func Load[T any](r io.Reader, dist metric.DistanceFunc[T], dec ItemDecoder[T]) (*Store[T], error) {
	outer := wire.NewReader(r)
	magic := string(outer.Bytes())
	if magic != saveMagic && magic != loadMagicV1 {
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

	s := &Store[T]{dist: metric.NewCounter(dist)}
	// The reserved field, Options.RebuildFraction when the store had it:
	// any positive finite number, as New took then.
	fraction := rr.Float()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if !(fraction > 0) || math.IsInf(fraction, 1) {
		return nil, fmt.Errorf("dynamic: reserved field %g (corrupt stream)", fraction)
	}
	var tree *mvp.Tree[T]
	var err error
	if magic == loadMagicV1 {
		tree, err = s.loadTreeV1(rr, len(payload), dec)
	} else {
		tree, err = s.loadTree(rr, dec)
	}
	if err != nil {
		return nil, err
	}
	// What the header says has to validate and come to the parameters of
	// the tree it built: a tree over nothing, which costs nothing, shows
	// what mvp.New makes of it. v is compared as the header spells it:
	// mvp.New would read 0 as 2, and no Save wrote that.
	built, err := mvp.New[T](nil, s.dist, s.opts.Tree)
	if err != nil {
		return nil, fmt.Errorf("%w (corrupt stream)", err)
	}
	if v := s.opts.Tree.Vantages; v != tree.Vantages() || built.Partitions() != tree.Partitions() || built.LeafCapacity() != tree.LeafCapacity() || built.PathLength() != tree.PathLength() {
		return nil, fmt.Errorf("dynamic: tree options v=%d m=%d k=%d p=%d, tree built with v=%d m=%d k=%d p=%d (corrupt stream)",
			v, built.Partitions(), built.LeafCapacity(), built.PathLength(), tree.Vantages(), tree.Partitions(), tree.LeafCapacity(), tree.PathLength())
	}
	cost, err := mvp.BuildDistances(tree.Len(), s.opts.Tree)
	if err != nil {
		return nil, err
	}
	s.adopt(tree, cost)
	return s, nil
}

// loadTree reads what follows the reserved field in a saveMagic
// payload: the tree options, the rebuild sequence and the tree.
func (s *Store[T]) loadTree(r *wire.Reader, dec ItemDecoder[T]) (*mvp.Tree[T], error) {
	o := &s.opts.Tree
	o.Partitions = r.Int()
	o.LeafCapacity = r.Int() - 1
	o.PathLength = r.Int() - 1
	o.Vantages = r.Int()
	setFlags(o, r.Byte())
	o.Seed = r.Uvarint()
	s.seq = r.Uvarint()
	stream := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return mvp.Load(bytes.NewReader(stream), s.dist, mvp.ItemDecoder[T](dec))
}

// loadTreeV1 is loadTree for a loadMagicV1 payload of size bytes. Its
// header spells k unshifted, counts build workers and has no field for
// v, which is read off the tree; its items are a table, and its tree's
// items varint positions in the table. The item count is charged against
// the payload's length before anything is allocated for it, and the
// tree's items must be the table's positions, each once: a bit per
// position marks the ones seen.
func (s *Store[T]) loadTreeV1(r *wire.Reader, size int, dec ItemDecoder[T]) (*mvp.Tree[T], error) {
	o := &s.opts.Tree
	o.Partitions = r.Int()
	o.LeafCapacity = r.Int()
	o.PathLength = r.Int() - 1
	setFlags(o, r.Byte())
	o.Workers = r.Int()
	o.Seed = r.Uvarint()
	s.seq = r.Uvarint()
	count := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if o.Workers > maxWorkers {
		return nil, fmt.Errorf("dynamic: %d build workers (corrupt stream)", o.Workers)
	}
	if count > size { // an item is a byte of the payload at least
		return nil, fmt.Errorf("dynamic: %d items announced in a %d-byte payload (corrupt stream)", count, size)
	}
	table := make([]T, count)
	for i := range table {
		b := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		var err error
		if table[i], err = dec(b); err != nil {
			return nil, fmt.Errorf("dynamic: decoding item: %w", err)
		}
	}
	stream := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, err
	}
	seen := make([]uint64, (count+63)/64)
	tree, err := mvp.Load(bytes.NewReader(stream), s.dist, func(b []byte) (T, error) {
		var zero T
		u, n := binary.Uvarint(b)
		if n <= 0 || n != len(b) {
			return zero, fmt.Errorf("dynamic: invalid ID encoding")
		}
		if u >= uint64(count) || seen[u/64]&(1<<(u%64)) != 0 {
			return zero, fmt.Errorf("dynamic: tree item %d is repeated or not in the table of %d (corrupt stream)", u, count)
		}
		seen[u/64] |= 1 << (u % 64)
		return table[u], nil
	})
	if err != nil {
		return nil, err
	}
	if tree.Len() != count {
		return nil, fmt.Errorf("dynamic: tree holds %d items, table %d (corrupt stream)", tree.Len(), count)
	}
	o.Vantages = tree.Vantages()
	return tree, nil
}
