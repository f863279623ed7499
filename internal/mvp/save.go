package mvp

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"mvptree/internal/metric"
	"mvptree/internal/wire"
)

// Persistence: a built mvp-tree can be written to a stream and loaded
// back without recomputing any distances — worthwhile precisely because
// construction is the expensive part (O(n log n) metric invocations on
// costly domains). Items are serialized through caller-supplied
// encode/decode functions; everything else (cutoffs, D1/D2, PATH
// arrays, shape) is stored verbatim — the leaf distances as the 16-bit
// codes the tree holds, with the step they count in the header.

// ItemEncoder serializes one item.
type ItemEncoder[T any] func(T) ([]byte, error)

// ItemDecoder deserializes one item.
type ItemDecoder[T any] func([]byte) (T, error)

// Save writes saveMagic. Load also reads loadMagicV2, which has no v in
// its header because v was always 2, and loadMagicV1, whose leaves besides
// carry a double per distance and a PATH length per item. retiredVPMagic
// is the stream internal/vptree wrote while it was a tree of its own: its
// bucket leaves store no distances, so it cannot become a tree of this
// package without computing some, and Load says so (docs/FORMAT.md).
const (
	saveMagic      = "MVPTREE3"
	loadMagicV2    = "MVPTREE2"
	loadMagicV1    = "MVPTREE1"
	retiredVPMagic = "VPTREE1"
)

// Save writes the tree to w as a CRC-protected payload. The distance
// function is not serialized; Load must be given the same metric or
// queries will be silently wrong.
func (t *Tree[T]) Save(w io.Writer, enc ItemEncoder[T]) error {
	var payload bytes.Buffer
	pw := wire.NewWriter(&payload)
	pw.Int(t.m)
	pw.Int(t.k)
	pw.Int(t.p)
	pw.Int(t.size)
	_, e := math.Frexp(t.step) // step = 0.5 · 2^e
	pw.Int(e - 1 - minStepExp)
	pw.Int(t.v)
	root := int32(noChild)
	if len(t.nodes) > 0 {
		root = 0
	}
	if err := t.saveNode(pw, root, enc); err != nil {
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

const (
	tagNil      = 0
	tagLeaf     = 1
	tagInternal = 2
)

func (t *Tree[T]) saveNode(w *wire.Writer, i int32, enc ItemEncoder[T]) error {
	if i == noChild {
		w.Byte(tagNil)
		return w.Err()
	}
	n := &t.nodes[i]
	item := func(it T) error {
		b, err := enc(it)
		if err != nil {
			return fmt.Errorf("mvp: encoding item: %w", err)
		}
		w.Bytes(b)
		return w.Err()
	}
	if n.isLeaf() {
		w.Byte(tagLeaf)
		w.Bool(n.svs > 0)
		w.Bool(n.hasSV2())
	} else {
		w.Byte(tagInternal)
	}
	for _, sv := range t.points(i) {
		if err := item(sv); err != nil {
			return err
		}
	}
	if n.isLeaf() {
		items, rows, stride := t.leaf(n)
		w.Int(len(items))
		for i, it := range items {
			if err := item(it); err != nil {
				return err
			}
			// The stream has no D2 where the tree has no second vantage
			// point; the arena keeps the slot (node, "Leaf node").
			for l, c := range rows[i*stride : (i+1)*stride] {
				if l != 1 || t.v == 2 {
					w.Uint16(c)
				}
			}
		}
		return w.Err()
	}
	cut1, _, sh := t.inner(n)
	w.Floats(cut1)
	w.Int(len(cut1) + 1)
	for range len(cut1) + 1 {
		row, cut2 := sh.next()
		// One vantage point: each shell is its one child.
		if t.v == 2 {
			w.Floats(cut2)
			w.Int(len(row))
		}
		for _, c := range row {
			if err := t.saveNode(w, c, enc); err != nil {
				return err
			}
		}
	}
	return w.Err()
}

// Load reads a tree written by Save, verifying the payload checksum.
// dist must wrap the same metric the tree was built with. A stream of
// the older grammar, whose leaf distances are doubles, is put on a grid
// as a fresh build's are, so it loads as the tree that build gives.
// A checksum only proves the payload is the one written: nothing is
// allocated on the word of a count in it, and what loads passes checkShape,
// which is where a cutoff that is no distance, or out of order, is caught.
func Load[T any](r io.Reader, dist *metric.Counter[T], dec ItemDecoder[T]) (*Tree[T], error) {
	outer := wire.NewReader(r)
	magic := string(outer.Bytes())
	switch magic {
	case saveMagic, loadMagicV2, loadMagicV1:
	case retiredVPMagic:
		return nil, errRetiredVP
	default:
		return nil, fmt.Errorf("mvp: bad magic (not an mvp-tree stream)")
	}
	payload := outer.Bytes()
	sum := outer.Uvarint()
	if err := outer.Err(); err != nil {
		return nil, err
	}
	if uint64(crc32.ChecksumIEEE(payload)) != sum {
		return nil, fmt.Errorf("mvp: checksum mismatch (corrupt stream)")
	}
	rr := wire.NewReader(bytes.NewReader(payload))
	t := &Tree[T]{dist: dist}
	t.m = rr.Int()
	t.k = rr.Int()
	t.p = rr.Int()
	t.size = rr.Int()
	exp := minStepExp
	if magic != loadMagicV1 {
		exp += rr.Int()
	}
	t.v = 2
	if magic == saveMagic {
		t.v = rr.Int()
	}
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if t.v < 1 || t.v > 2 || t.m < 2 || t.k < 0 || t.p < 0 || t.size < 0 || exp > maxStepExp {
		return nil, fmt.Errorf("mvp: corrupt header (v=%d m=%d k=%d p=%d n=%d step=2^%d)", t.v, t.m, t.k, t.p, t.size, exp)
	}
	// No loadable leaf can hold more PATH entries than this, and p sizes
	// the query scratch. The arenas start at what the header asks for or
	// the payload could hold (5 bytes a leaf item at least; a code per
	// byte at most, since a one-vantage row's D2 slot is not in the stream;
	// 8 bytes a double), whichever is less; cloning then drops the spare.
	t.p = min(t.p, t.v*maxLoadDepth)
	t.items = make([]T, 0, min(t.size, len(payload)/5))
	var raw *[]float64 // the distances of a v1 stream, nil reading a later one
	if magic != loadMagicV1 {
		t.step = math.Ldexp(1, exp)
		t.filter = make([]uint16, 0, min(t.size*(2+t.p), len(payload)))
	} else {
		doubles := make([]float64, 0, min(t.size*(2+t.p), len(payload)/8))
		raw = &doubles
	}
	if _, err := t.loadNode(rr, dec, 0, raw); err != nil {
		return nil, err
	}
	t.nodes, t.vps, t.cuts, t.kids = slices.Clone(t.nodes), slices.Clone(t.vps), slices.Clone(t.cuts), slices.Clone(t.kids)
	t.items = slices.Clone(t.items)
	if raw != nil {
		t.encodeLeaves(*raw, max(stepExp(*raw), minStepExpV1))
	} else {
		t.filter = slices.Clone(t.filter)
	}
	t.sealLeaves()
	if err := t.checkShape(); err != nil {
		return nil, fmt.Errorf("%w (corrupt stream)", err)
	}
	return t, nil
}

// A v1 leaf distance is the double measured (PR 14 and before) or, from
// PR 15 to PR 18, that double as a float32, rounded to the neighbour with
// an odd last bit when float32 could not hold it. Such a neighbour and
// the distance behind it take the same code — so the tree loaded is the
// one a fresh build gives — as long as every grid point is a float32 with
// an even last bit, because then none lies strictly between the two. That
// holds for any step a tree of float32 magnitudes gets (a grid point has
// 16 significant bits) once it is no finer than float32's denormals,
// minStepExpV1. It does not hold for a distance clamped to MaxFloat32,
// the one rounded value with nothing known above it, which those
// versions answered by idling the filter: v1Distance reads it as +Inf,
// which does the same.
const minStepExpV1 = -148

func v1Distance(r *wire.Reader) float64 {
	x := r.Float()
	if x >= math.MaxFloat32 {
		return math.Inf(1)
	}
	return x
}

// errRetiredVP is Load's answer to a stream of the retired vp-tree grammar.
var errRetiredVP = errors.New("mvp: a " + retiredVPMagic + " stream: the vp-tree's own format is retired (its leaves stored no distances, which a tree of this package needs); rebuild the tree and save it again")

// maxLoadDepth guards against corrupt streams describing pathologically
// deep recursion.
const maxLoadDepth = 64

// loadNode reads the subtree at depth and returns its root's index,
// noChild for none. Nodes join the arenas in the order of the stream,
// which is pre-order; an internal node's cutoffs and child indices are
// complete only once its subtrees are read, and follow theirs.
func (t *Tree[T]) loadNode(r *wire.Reader, dec ItemDecoder[T], depth int, raw *[]float64) (int32, error) {
	if depth > maxLoadDepth {
		return 0, fmt.Errorf("mvp: tree deeper than %d levels (corrupt stream)", maxLoadDepth)
	}
	item := func() (it T, err error) {
		b := r.Bytes()
		if err = r.Err(); err == nil {
			if it, err = dec(b); err != nil {
				err = fmt.Errorf("mvp: decoding item: %w", err)
			}
		}
		return it, err
	}
	tag, svs := r.Byte(), t.v
	switch tag {
	case tagNil:
		return noChild, r.Err()
	case tagLeaf:
		switch hasSV1, hasSV2 := r.Bool(), r.Bool(); {
		case hasSV2 && (!hasSV1 || t.v == 1):
			return 0, fmt.Errorf("mvp: leaf at depth %d has a second vantage point without a first, or in a tree of one per node (corrupt stream)", depth)
		case !hasSV1:
			svs = 0
		case !hasSV2:
			svs = 1
		}
	case tagInternal:
	default:
		return 0, fmt.Errorf("mvp: unknown node tag %d (corrupt stream)", tag)
	}
	i := len(t.nodes)
	t.nodes = append(t.nodes, node{internal: tag == tagInternal, svs: uint8(svs)})
	t.vps = append(t.vps, make([]T, t.v)...)
	t.height = max(t.height, depth)
	for j := 0; j < svs; j++ {
		var err error
		if t.vps[i*t.v+j], err = item(); err != nil {
			return 0, err
		}
	}
	if tag == tagLeaf {
		count := r.Int()
		if err := r.Err(); err != nil {
			return 0, err
		}
		if count > t.k {
			return 0, fmt.Errorf("mvp: leaf of %d items, k=%d (corrupt stream)", count, t.k)
		}
		// A leaf's rows have one PATH length, the depth's; the v1 grammar
		// gives each item its own.
		n := &t.nodes[i]
		n.off, n.foff, n.cnt = int32(len(t.items)), len(t.filter), int32(count)
		if raw != nil {
			n.foff = len(*raw)
		}
		if count > 0 {
			n.held = uint16(min(t.p, t.v*depth))
		}
		for i := 0; i < count; i++ {
			it, err := item()
			if err != nil {
				return 0, err
			}
			t.items = append(t.items, it)
			if raw == nil {
				for l := 0; l < 2+int(n.held); l++ {
					var c uint16 // the D2 slot a one-vantage stream leaves out
					if l != 1 || t.v == 2 {
						c = r.Uint16()
					}
					t.filter = append(t.filter, c)
				}
				continue
			}
			*raw = append(*raw, v1Distance(r), v1Distance(r))
			if held := r.Int(); held != int(n.held) && r.Err() == nil {
				return 0, fmt.Errorf("mvp: PATH length %d at depth %d, want %d (corrupt stream)", held, depth, n.held)
			}
			for l := 0; l < int(n.held); l++ {
				*raw = append(*raw, v1Distance(r))
			}
		}
		return int32(i), r.Err()
	}

	cut1 := r.Floats()
	shells := r.Int()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if shells != len(cut1)+1 {
		return 0, fmt.Errorf("mvp: %d shells for %d cutoffs (corrupt stream)", shells, len(cut1))
	}
	// The node's own rows of the cutoff and child arenas (Tree.inner).
	cuts := append(make([]float64, t.v, t.v+len(cut1)), cut1...)
	var parts, kids []int32
	for g := 0; g < shells; g++ {
		var cut2 []float64
		cols := 1 // one vantage point: each shell is its one child
		if t.v == 2 {
			cut2, cols = r.Floats(), r.Int()
		}
		if err := r.Err(); err != nil {
			return 0, err
		}
		if cols != len(cut2)+1 {
			return 0, fmt.Errorf("mvp: %d sub-shells for %d cutoffs (corrupt stream)", cols, len(cut2))
		}
		cuts, parts = append(cuts, cut2...), append(parts, int32(cols))
		for h := 0; h < cols; h++ {
			c, err := t.loadNode(r, dec, depth+1, raw)
			if err != nil {
				return 0, err
			}
			kids = append(kids, c)
		}
	}
	cuts[0] = cutMax(cut1)
	if t.v == 2 {
		cuts[1] = cutMax(cuts[t.v+len(cut1):])
		kids = append(parts, kids...)
	}
	n := &t.nodes[i]
	n.cnt, n.off, n.foff = int32(shells), int32(len(t.cuts)), len(t.kids)
	t.cuts, t.kids = append(t.cuts, cuts...), append(t.kids, kids...)
	return int32(i), r.Err()
}
