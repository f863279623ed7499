package mvp

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
// codes of the tree's grid, with the step they count in the header, also
// when the tree holds them in bytes.

// ItemEncoder serializes one item.
type ItemEncoder[T any] func(T) ([]byte, error)

// ItemDecoder deserializes one item. The bytes it is handed are never
// written to again, so it may keep them (and with them the buffer the
// stream was read into).
type ItemDecoder[T any] func([]byte) (T, error)

// Save writes saveMagic: the tree's arenas in bulk (docs/FORMAT.md). Load
// also reads the three nested grammars before it: loadMagicV3, which
// spells the same tree node by node; loadMagicV2, which has no v in its
// header because v was always 2; and loadMagicV1, whose leaves besides
// carry a double per distance and a PATH length per item. retiredVPMagic
// is the stream internal/vptree wrote while it was a tree of its own: its
// bucket leaves store no distances, so it cannot become a tree of this
// package without computing some, and Load says so.
const (
	saveMagic      = "MVPTREE4"
	loadMagicV3    = "MVPTREE3"
	loadMagicV2    = "MVPTREE2"
	loadMagicV1    = "MVPTREE1"
	retiredVPMagic = "VPTREE1"
)

// rowBytes is a node row in a saveMagic stream: off, cnt, foff, held, svs
// and a byte that is 1 for an internal node, little-endian. top1 and top2
// are not in it: sealLeaves derives them from the codes.
const rowBytes = 4 + 4 + 4 + 2 + 1 + 1

// saveBuffer is the write buffer of a Save: a snapshot blob of megabytes
// goes to its file in tens of writes, not thousands.
const saveBuffer = 64 << 10

// Save writes the tree to w: the magic, a header, the arenas in bulk and
// a CRC-32 of everything after the magic. Nothing is staged: the bytes go
// through one buffer of saveBuffer to w as they are produced, so a Save
// that fails — enc refusing an item, say — may have written part of the
// stream. The distance function is not serialized; Load must be given
// the same metric or queries will be silently wrong. A tree that holds
// tombstones (Remove) is refused before anything is written: the stream
// has no place for them, so a caller rebuilds over Items first.
func (t *Tree[T]) Save(w io.Writer, enc ItemEncoder[T]) error {
	if t.tombs > 0 {
		return fmt.Errorf("mvp: the tree holds %d tombstoned items, which a stream cannot", t.tombs)
	}
	_, e := math.Frexp(t.step) // step = 0.5 · 2^e
	header := []int{t.m, t.k, t.p, t.size, e - 1 - minStepExp, t.v,
		len(t.nodes), t.size - t.leafItems, t.leafItems, len(t.cuts), len(t.kids), t.codes()}
	for _, x := range header[6:] {
		if x > wire.MaxBytes {
			return fmt.Errorf("mvp: an arena of %d entries is past what a stream holds (%d)", x, wire.MaxBytes)
		}
	}
	magic := binary.AppendUvarint(nil, uint64(len(saveMagic)))
	if _, err := w.Write(append(magic, saveMagic...)); err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, saveBuffer)
	var buf []byte
	for _, x := range header {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	bw.Write(buf) // a write error sticks, and Flush returns it
	if err := putAll(bw, t.nodes, rowBytes, appendRow); err != nil {
		return err
	}
	item := func(it T) error {
		b, err := enc(it)
		if err != nil {
			return fmt.Errorf("mvp: encoding item: %w", err)
		}
		bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(b))))
		_, err = bw.Write(b)
		return err
	}
	for i := range t.nodes {
		for j := range int(t.nodes[i].svs) {
			if err := item(t.point(int32(i), j)); err != nil {
				return err
			}
		}
	}
	for i := range t.leafItems {
		if err := item(t.items.at(i)); err != nil {
			return err
		}
	}
	if err := putAll(bw, t.cuts, 8, func(b []byte, x float64) []byte {
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}); err != nil {
		return err
	}
	if err := putAll(bw, t.kids, 4, func(b []byte, x int32) []byte {
		return binary.LittleEndian.AppendUint32(b, uint32(x))
	}); err != nil {
		return err
	}
	for rows := range t.leaves() { // the codes on the tree's grid
		if err := putAll(bw, rows, 2, binary.LittleEndian.AppendUint16); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, cw.sum))
	return err
}

// crcWriter passes its bytes on to w and keeps their CRC-32.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	return n, err
}

// putAll writes xs through bw as size bytes each, which put appends
// straight into the writer's buffer.
func putAll[E any](bw *bufio.Writer, xs []E, size int, put func([]byte, E) []byte) error {
	for len(xs) > 0 {
		if bw.Available() < size {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		buf := bw.AvailableBuffer()
		n := min(len(xs), cap(buf)/size)
		for _, x := range xs[:n] {
			buf = put(buf, x)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

func appendRow(b []byte, n node) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(le.AppendUint32(le.AppendUint32(b, uint32(n.off)), uint32(n.cnt)), uint32(n.foff))
	b = le.AppendUint16(b, n.held)
	if n.internal {
		return append(b, n.svs, 1)
	}
	return append(b, n.svs, 0)
}

// Load reads a tree written by Save, or by the Save of an earlier format,
// verifying the payload checksum. A stream Save writes has no length
// ahead of it, so Load reads r to its end. dist must wrap the same metric
// the tree was built with. A stream of the oldest grammar, whose leaf distances
// are doubles, is put on a grid as a fresh build's are, so it loads as
// the tree that build gives. A checksum only proves the payload is the
// one written: nothing is allocated on the word of a count in it, and
// what loads passes checkShape, which is where a cutoff that is no
// distance, or out of order, is caught, and — before anything is sliced
// by them — node rows that do not tile the arenas or make a tree.
func Load[T any](r io.Reader, dist *metric.Counter[T], dec ItemDecoder[T]) (*Tree[T], error) {
	in := wire.NewReader(r)
	t := &Tree[T]{dist: dist}
	var err error
	switch magic := string(in.Bytes()); magic {
	case saveMagic:
		err = t.loadArenas(in, dec)
	case loadMagicV3, loadMagicV2, loadMagicV1:
		err = t.loadNested(in, magic, dec)
	case retiredVPMagic:
		return nil, errRetiredVP
	default:
		return nil, fmt.Errorf("mvp: bad magic (not an mvp-tree stream)")
	}
	if err != nil {
		return nil, err
	}
	height, err := t.checkShape()
	if err == nil && height > maxLoadDepth {
		err = fmt.Errorf("mvp: tree deeper than %d levels", maxLoadDepth)
	}
	if err != nil {
		return nil, fmt.Errorf("%w (corrupt stream)", err)
	}
	t.height = height
	t.sealLeaves()
	return t, nil
}

// header sets the tree's parameters from what a stream says of them, and
// refuses what no tree has. exp is the step's exponent.
func (t *Tree[T]) header(exp int) error {
	if t.v < 1 || t.v > 2 || t.m < 2 || t.k < 0 || t.p < 0 || t.size < 0 || exp > maxStepExp {
		return fmt.Errorf("mvp: corrupt header (v=%d m=%d k=%d p=%d n=%d step=2^%d)", t.v, t.m, t.k, t.p, t.size, exp)
	}
	// No loadable leaf can hold more PATH entries than this, and p sizes
	// the query scratch.
	t.p = min(t.p, t.v*maxLoadDepth)
	t.step = math.Ldexp(1, exp)
	return nil
}

// loadArenas reads the rest of a saveMagic stream, all of it at once:
// header, arenas, checksum. Every count in the header is charged against
// the bytes that follow it before any arena is allocated.
func (t *Tree[T]) loadArenas(in *wire.Reader, dec ItemDecoder[T]) (err error) {
	stream := in.Rest()
	if err := in.Err(); err != nil {
		return err
	}
	if len(stream) < 4 {
		return fmt.Errorf("mvp: %w before the checksum (corrupt stream)", io.ErrUnexpectedEOF)
	}
	payload, sum := stream[:len(stream)-4], binary.LittleEndian.Uint32(stream[len(stream)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return fmt.Errorf("mvp: checksum mismatch (corrupt stream)")
	}
	c := &cursor{b: payload}
	t.m, t.k, t.p, t.size = c.int(), c.int(), c.int(), c.int()
	exp := minStepExp + c.int()
	t.v = c.int()
	nodes, points, items, cuts, kids, filter := c.int(), c.int(), c.int(), c.int(), c.int(), c.int()
	if c.err != nil {
		return c.err
	}
	if err := t.header(exp); err != nil {
		return err
	}
	// An encoded item is a byte at least: its length.
	if need := nodes*rowBytes + points + items + 8*cuts + 4*kids + 2*filter; need > len(c.b) {
		return fmt.Errorf("mvp: the header announces %d bytes of arenas, %d follow (corrupt stream)", need, len(c.b))
	}
	t.nodes, t.leafItems = make([]node, nodes), items
	le, held := binary.LittleEndian, 0
	for i, b := 0, c.next(nodes*rowBytes); i < nodes; i, b = i+1, b[rowBytes:] {
		t.nodes[i] = node{off: int32(le.Uint32(b)), cnt: int32(le.Uint32(b[4:])), foff: int32(le.Uint32(b[8:])),
			held: le.Uint16(b[12:]), svs: b[14], internal: b[15] == 1}
		if int(b[14]) > t.v || b[15] > 1 {
			return fmt.Errorf("mvp: node %d has %d vantage points of %d, kind %d (corrupt stream)", i, b[14], t.v, b[15])
		}
		held += int(b[14])
	}
	if held != points {
		return fmt.Errorf("mvp: the nodes hold %d vantage points, the header says %d (corrupt stream)", held, points)
	}
	item := func() (it T, err error) {
		b := c.next(c.int())
		if err = c.err; err == nil {
			if it, err = dec(b); err != nil {
				err = fmt.Errorf("mvp: decoding item: %w", err)
			}
		}
		return it, err
	}
	// The points are decoded into the point arena's slots as a []T, which
	// the rule then holds as a build's are (itemsOf): the stream's vantage
	// points, node by node, then its leaf items.
	slots := make([]T, items+nodes*t.v)
	for i := range t.nodes {
		for j := range int(t.nodes[i].svs) {
			if slots[t.vpSlot(int32(i), j)], err = item(); err != nil {
				return err
			}
		}
	}
	for i := range items {
		if slots[i], err = item(); err != nil {
			return err
		}
	}
	t.items = itemsOf(slots, t.hole)
	t.cuts = getAll(c, make([]float64, cuts), 8, func(b []byte) float64 { return math.Float64frombits(le.Uint64(b)) })
	t.kids = getAll(c, make([]int32, kids), 4, func(b []byte) int32 { return int32(le.Uint32(b)) })
	t.filter = getAll(c, make([]uint16, filter), 2, le.Uint16)
	if c.err == nil && len(c.b) > 0 {
		return fmt.Errorf("mvp: %d bytes past the last arena (corrupt stream)", len(c.b))
	}
	return c.err
}

// cursor reads a payload held whole, with a sticky error as wire.Reader's.
type cursor struct {
	b   []byte
	err error
}

// int reads a varint bounded as wire.Reader.Int bounds one.
func (c *cursor) int() int {
	if c.err != nil {
		return 0
	}
	u, n := binary.Uvarint(c.b)
	if n <= 0 || u > wire.MaxBytes {
		c.err = fmt.Errorf("mvp: bad varint, or past %d (corrupt stream)", wire.MaxBytes)
		return 0
	}
	c.b = c.b[n:]
	return int(u)
}

// next returns the next n bytes.
func (c *cursor) next(n int) []byte {
	if c.err == nil && n > len(c.b) {
		c.err = fmt.Errorf("mvp: %w in an arena (corrupt stream)", io.ErrUnexpectedEOF)
	}
	if c.err != nil {
		return nil
	}
	b := c.b[:n:n]
	c.b = c.b[n:]
	return b
}

// getAll fills xs from the next len(xs)·size bytes of c, one entry by get.
func getAll[E any](c *cursor, xs []E, size int, get func([]byte) E) []E {
	b := c.next(len(xs) * size)
	if c.err != nil {
		return nil
	}
	for i := range xs {
		xs[i] = get(b[i*size:])
	}
	return xs
}

// loadNested reads the rest of a stream of the nested grammars, magic
// saying which: its payload and checksum, then the tree node by node.
func (t *Tree[T]) loadNested(in *wire.Reader, magic string, dec ItemDecoder[T]) error {
	payload := in.Bytes()
	sum := in.Uvarint()
	if err := in.Err(); err != nil {
		return err
	}
	if uint64(crc32.ChecksumIEEE(payload)) != sum {
		return fmt.Errorf("mvp: checksum mismatch (corrupt stream)")
	}
	rr := wire.NewReader(bytes.NewReader(payload))
	t.m = rr.Int()
	t.k = rr.Int()
	t.p = rr.Int()
	t.size = rr.Int()
	exp := minStepExp
	if magic != loadMagicV1 {
		exp += rr.Int()
	}
	t.v = 2
	if magic == loadMagicV3 {
		t.v = rr.Int()
	}
	if err := rr.Err(); err != nil {
		return err
	}
	if err := t.header(exp); err != nil {
		return err
	}
	// The arenas start at what the header asks for or the payload could
	// hold (5 bytes a leaf item at least; a code per byte at most, since a
	// one-vantage row's D2 slot is not in the stream; 8 bytes a double),
	// whichever is less; cloning then drops the spare. The points are held
	// as the rule gives once all are read (itemsOf): the leaf items, then
	// the vantage slots, in one []T of their own.
	pts := &nestedPoints[T]{items: make([]T, 0, min(t.size, len(payload)/5))}
	var raw *[]float64 // the distances of a v1 stream, nil reading a later one
	if magic != loadMagicV1 {
		t.filter = make([]uint16, 0, min(t.size*(2+t.p), len(payload)))
	} else {
		doubles := make([]float64, 0, min(t.size*(2+t.p), len(payload)/8))
		raw = &doubles
	}
	if _, err := t.loadNode(rr, dec, 0, pts, raw); err != nil {
		return err
	}
	t.nodes, t.leafItems = slices.Clone(t.nodes), len(pts.items)
	t.items = itemsOf(slices.Concat(pts.items, pts.vps), t.hole)
	if raw != nil {
		t.encodeLeaves(*raw, max(stepExp(*raw), minStepExpV1))
	} else {
		t.filter = slices.Clone(t.filter)
	}
	t.preorder()
	return nil
}

// preorder lays the internal nodes' rows of the cutoff and child arenas
// out in node order, as a build does (construction.load) and checkShape
// requires: the nested grammars give a node's rows only once its
// subtrees are read, so loadNode appends them in post-order.
func (t *Tree[T]) preorder() {
	cuts, kids := make([]float64, 0, len(t.cuts)), make([]int32, 0, len(t.kids))
	for i := range t.nodes {
		if n := &t.nodes[i]; n.internal {
			c, k, _ := t.innerLen(n)
			off, foff := len(cuts), len(kids)
			cuts, kids = append(cuts, t.cuts[n.off:][:c]...), append(kids, t.kids[n.foff:][:k]...)
			n.off, n.foff = int32(off), int32(foff)
		}
	}
	t.cuts, t.kids = cuts, kids
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
// deep trees.
const maxLoadDepth = 64

// The node tags of the nested grammars.
const (
	tagNil      = 0
	tagLeaf     = 1
	tagInternal = 2
)

// nestedPoints is what loadNode reads of the points: the leaf items in
// leaf order, and v vantage slots a node in node order.
type nestedPoints[T any] struct{ items, vps []T }

// loadNode reads the subtree at depth of a nested stream and returns its
// root's index, noChild for none. Nodes join the arenas in the order of
// the stream, which is pre-order; an internal node's cutoffs and child
// indices are complete only once its subtrees are read, and follow
// theirs (preorder puts them back in node order).
func (t *Tree[T]) loadNode(r *wire.Reader, dec ItemDecoder[T], depth int, pts *nestedPoints[T], raw *[]float64) (int32, error) {
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
	pts.vps = append(pts.vps, make([]T, t.v)...)
	for j := 0; j < svs; j++ {
		var err error
		if pts.vps[i*t.v+j], err = item(); err != nil {
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
		// gives each item its own. A leaf without items keeps the zero
		// offsets a build gives it.
		n := &t.nodes[i]
		if count > 0 {
			n.off, n.foff, n.cnt, n.held = int32(len(pts.items)), int32(len(t.filter)), int32(count), uint16(min(t.p, t.v*depth))
			if raw != nil {
				n.foff = int32(len(*raw))
			}
		}
		for i := 0; i < count; i++ {
			it, err := item()
			if err != nil {
				return 0, err
			}
			pts.items = append(pts.items, it)
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
			c, err := t.loadNode(r, dec, depth+1, pts, raw)
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
	n.cnt, n.off, n.foff = int32(shells), int32(len(t.cuts)), int32(len(t.kids))
	t.cuts, t.kids = append(t.cuts, cuts...), append(t.kids, kids...)
	return int32(i), r.Err()
}
