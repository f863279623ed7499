package mvp

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"unsafe"
)

// The leaf filter stores every distance as a uint16 code on one
// tree-wide grid (the bound cascade's columns on a second, cascade.go):
// code·step with step a power of two, so decoding is
// exact and a query window becomes two integers compared against the
// codes with no conversion. A distance off the grid takes the odd code
// beside it — round-to-odd — and is then less than step away from what
// the code stands for; the tree's slack bounds that loss over every
// stored distance. |d(q,v) − x| ≥ |d(q,v) − code·step| − slack, so range
// windows widen by slack and kNN/farthest bounds give it back
// (docs/CORRECTNESS.md §2). Save keeps only step and the codes, so slack
// is derived from them: 0 when every code is even, step when one is odd,
// +Inf — the filter idles — when one is idleCode. Integer-valued
// distances up to 32 767 sit on even codes: such a metric has slack 0
// and filters as a float64 leaf would.

const (
	topCode  = 1<<16 - 2 // the largest code a distance on the grid takes
	idleCode = 1<<16 - 1 // a distance the grid cannot hold: +Inf, NaN, negative

	// The exponents a step can have: every float64 is a multiple of
	// 2^minStepExp, and MaxFloat64 / 2^maxStepExp ≤ topCode.
	minStepExp, maxStepExp = -1074, 1009
)

// stepExp returns e such that 2^e is the smallest step that puts the
// largest finite distance in raw on a code ≤ topCode.
func stepExp(raw []float64) int { return expFor(largest(raw)) }

// largest returns the largest finite distance in raw, 0 if none is
// positive.
func largest(raw []float64) float64 {
	var top float64
	for _, x := range raw {
		if x > top && x <= math.MaxFloat64 {
			top = x
		}
	}
	return top
}

// expFor is stepExp of a row whose largest finite distance is top.
func expFor(top float64) int {
	// top = f·2^e with f in [0.5, 1): 2^(e−16) is the step unless f·2¹⁶
	// passes topCode.
	_, e := math.Frexp(top)
	e = max(e-16, minStepExp)
	if top/math.Ldexp(1, e) > topCode {
		e++
	}
	return e
}

// encode returns the code stored for the distance x on the grid of step:
// x/step when that is a whole number, else x/step truncated with its last
// bit then set (the odd neighbour, within step of x and never zero).
func encode(x, step float64) uint16 {
	if !(x >= 0 && x/step <= topCode) {
		return idleCode
	}
	c := uint16(x / step)
	// c·step is exact, x/step is not when it underflows.
	if float64(c)*step != x {
		c |= 1
	}
	return c
}

// slackOf bounds what encode may have rounded off the stored distances.
func slackOf(codes []uint16, step float64) float64 { return sumOf(codes).slack(step) }

// codeSum is what the filter's rules read of a set of codes: all, their
// OR, and top, the largest.
type codeSum struct{ all, top uint16 }

// sumOf returns the codeSum of codes; add joins two sums.
func sumOf(codes []uint16) (s codeSum) {
	for _, c := range codes {
		s.all, s.top = s.all|c, max(s.top, c)
	}
	return s
}

func (s codeSum) add(o codeSum) codeSum { return codeSum{s.all | o.all, max(s.top, o.top)} }

// slack is slackOf the codes: +Inf when one is idleCode, the largest
// there is, else step when one is odd, else 0.
func (s codeSum) slack(step float64) float64 {
	if s.top == idleCode {
		return math.Inf(1)
	}
	return float64(s.all&1) * step
}

// decode returns the distance code c stands for; exact.
func (t *Tree[T]) decode(c uint16) float64 { return float64(c) * t.step }

// The tree holds its leaf codes in bytes when a byte loses nothing: the
// slack is 0 and every code is a multiple of 2^s, s the smallest shift
// that brings the largest code to narrowTop or below. The arena then
// holds c>>s, codes on the grid of step·2^s, which stand for the same
// distances. Integer distances up to 254 always are (edit distances over
// words: a few dozen at most). Where the same holds of nibbleTop and
// every row has at most nibbleCols codes — integer distances up to 15,
// p ≤ 6 — a leaf item's whole row is one uint32 instead, column l in
// nibble l and the nibbles past its stride zero, and the scan tests it in
// one step (rowMiss). The rule reads only the codes and the leaves'
// strides, so a build and a Load of its Save reach the same width. Only
// this file and the scan know the width: Save, Validate, Widen and the
// farthest queries read the codes widened again (wideRows), and the step,
// top1 and top2 are the wide grid's whatever the width.
const (
	narrowTop  = 1<<8 - 2
	nibbleTop  = 1<<4 - 1
	nibbleCols = 8
)

// cell is the element of a filter arena: a 16-bit code, a byte, or a
// nibble arena's whole row (uint32).
type cell interface{ uint8 | uint16 | uint32 }

// isRow reports whether C is a nibble arena's element, a row of codes
// rather than one code. The compiler folds it in every instantiation.
func isRow[C cell]() bool {
	var c C
	return unsafe.Sizeof(c) == 4
}

// shift returns the shift that puts every code at or below top exactly,
// and whether there is one: an odd code is off the grid or idle, slack
// the narrower codes would hide.
func (s codeSum) shift(top uint16) (shift uint8, ok bool) {
	for s.top>>shift > top {
		shift++
	}
	return shift, s.all&1 == 0 && s.all&(1<<shift-1) == 0
}

// settle sets the tree's slack from sum, the sum of its codes, and moves
// the filter arena into nibble rows or bytes where they hold every code
// exactly: one pass over the codes once they are all in place. The
// build's seal and Load end here.
func (t *Tree[T]) settle(sum codeSum) {
	t.slack = sum.slack(t.step)
	if len(t.filter) == 0 {
		return
	}
	if shift, ok := sum.shift(nibbleTop); ok && t.rowsFit() {
		rows := make([]uint32, t.leafItems)
		for i := range t.nodes {
			n := &t.nodes[i]
			if n.internal {
				continue
			}
			codes, stride := leafRows(t.filter, n)
			for j := range rows[n.off:][:n.cnt] {
				var x uint32
				for l, c := range codes[j*stride:][:stride] {
					x |= uint32(c>>shift) << (4 * l)
				}
				rows[int(n.off)+j] = x
			}
		}
		t.filter, t.nibbles, t.shift = nil, rows, shift
		return
	}
	shift, ok := sum.shift(narrowTop)
	if !ok {
		return
	}
	narrow := make([]uint8, len(t.filter))
	for i, c := range t.filter {
		narrow[i] = uint8(c >> shift)
	}
	t.filter, t.narrow, t.shift = nil, narrow, shift
}

// rowsFit reports whether every leaf row fits a nibble row.
func (t *Tree[T]) rowsFit() bool {
	for i := range t.nodes {
		if n := &t.nodes[i]; n.isLeaf() && 2+int(n.held) > nibbleCols {
			return false
		}
	}
	return true
}

// nibble returns column l of the nibble row x.
func nibble(x uint32, l int) uint8 { return uint8(x >> (4 * l) & nibbleTop) }

// wideRows returns leaf n's rows on the tree's grid, item i's
// rows[i*stride:][:stride]: a view of the arena when it is wide, else its
// bytes or nibbles widened into *buf, which grows to the largest leaf and
// is the caller's to reuse. Outside this file only the scan reads the
// arena at its own width (Tree.scan); everything else reads it here.
func (t *Tree[T]) wideRows(n *node, buf *[]uint16) (rows []uint16, stride int) {
	if t.narrow == nil && t.nibbles == nil {
		return leafRows(t.filter, n)
	}
	stride = 2 + int(n.held)
	rows = slices.Grow((*buf)[:0], int(n.cnt)*stride)[:int(n.cnt)*stride]
	*buf = rows
	if t.narrow != nil {
		cells, _ := leafRows(t.narrow, n)
		for j, c := range cells {
			rows[j] = uint16(c) << t.shift
		}
		return rows, stride
	}
	cells, _ := leafRows(t.nibbles, n)
	for j, x := range cells {
		for l := range stride {
			rows[j*stride+l] = uint16(nibble(x, l)) << t.shift
		}
	}
	return rows, stride
}

// leaves yields every leaf's rows on the tree's grid in node order
// (wideRows): together the filter arena as a wide tree holds it and Save
// writes it. A narrow arena's rows share one buffer, which the next leaf
// overwrites.
func (t *Tree[T]) leaves() iter.Seq[[]uint16] {
	return func(yield func([]uint16) bool) {
		var buf []uint16
		for i := range t.nodes {
			if n := &t.nodes[i]; n.isLeaf() {
				if rows, _ := t.wideRows(n, &buf); !yield(rows) {
					return
				}
			}
		}
	}
}

// codes is the number of codes in the filter arena, whatever its width.
// A nibble arena holds its rows' strides, if it is a row per leaf item and
// every stride fits a row; else it is -1, a count no node rows tile.
func (t *Tree[T]) codes() int {
	if t.nibbles == nil {
		return len(t.filter) + len(t.narrow)
	}
	if len(t.nibbles) != t.leafItems || !t.rowsFit() {
		return -1
	}
	codes := 0
	for i := range t.nodes {
		if n := &t.nodes[i]; n.isLeaf() {
			codes += int(n.cnt) * (2 + int(n.held))
		}
	}
	return codes
}

// filterBytes is the size of the filter arena at the width it holds.
func (t *Tree[T]) filterBytes() int {
	return len(t.filter)*int(unsafe.Sizeof(t.filter[0])) + len(t.narrow) + len(t.nibbles)*int(unsafe.Sizeof(t.nibbles[0]))
}

// checkCells verifies what widening assumes of a narrow arena's cells, and
// returns the sum of the codes on the tree's grid (leaves). A byte arena
// holds no byte past narrowTop, a nibble arena no nibble past its row's
// stride but zeros, and no byte or nibble is past topCode at the shift;
// widened, either is an arena of slack 0 (settle).
func (t *Tree[T]) checkCells() (sum codeSum, err error) {
	var top uint8 // the largest byte or nibble
	for _, c := range t.narrow {
		top = max(top, c)
	}
	if top > narrowTop {
		return sum, fmt.Errorf("mvp: narrow filter code %d: past a byte code", top)
	}
	for i := 0; t.nibbles != nil && i < len(t.nodes); i++ {
		if n := &t.nodes[i]; n.isLeaf() {
			rows, _ := leafRows(t.nibbles, n)
			stride := 2 + int(n.held)
			for _, x := range rows {
				if x>>(4*stride) != 0 {
					return sum, fmt.Errorf("mvp: nibble row %#x of %d codes holds a nibble past them", x, stride)
				}
				for l := range stride {
					top = max(top, nibble(x, l))
				}
			}
		}
	}
	if uint32(top)<<t.shift > topCode {
		return sum, fmt.Errorf("mvp: filter code %d at shift %d: past the grid", top, t.shift)
	}
	for rows := range t.leaves() {
		sum = sum.add(sumOf(rows))
	}
	if s := sum.slack(t.step); s != 0 && (t.narrow != nil || t.nibbles != nil) {
		return sum, fmt.Errorf("mvp: a narrow filter arena widens to codes of slack %g", s)
	}
	return sum, nil
}

// Widen keeps the leaf filter in 16-bit codes from now on, as a tree
// whose codes neither nibbles nor bytes can hold does: answers, stats,
// counts and Save bytes are the same either way, FilterBytes grows. It is
// the wide twin of the differential tests. It is not synchronized with
// in-flight queries.
func (t *Tree[T]) Widen() {
	wide := make([]uint16, 0, t.codes())
	for rows := range t.leaves() {
		wide = append(wide, rows...)
	}
	t.filter, t.narrow, t.nibbles, t.shift = wide, nil, nil, 0
}

// window is window on the tree's grid, narrowed to the arena it holds.
func (t *Tree[T]) window(lo, hi float64) (lo16, hi16 uint16) {
	return t.narrowed(window(lo, hi, t.step))
}

// narrowed returns, of a window lo ≤ c ≤ hi of codes on the tree's grid,
// the codes of the arena the tree holds whose wide codes it keeps: the
// same window when the arena is wide, else the bytes or nibbles b with
// lo ≤ b<<shift ≤ hi. Every byte or nibble then passes exactly where its
// wide code would, whatever the bounds (docs/CORRECTNESS.md §2).
func (t *Tree[T]) narrowed(lo, hi uint16) (uint16, uint16) {
	return uint16((uint32(lo) + 1<<t.shift - 1) >> t.shift), hi >> t.shift
}

// laneTop is the top bit of every byte lane of a row test.
const laneTop = 0x8080808080808080

// lane returns the shift of column l's byte lane in a row test: a row's
// even nibbles go to the low four bytes, its odd ones to the high four
// (rowMiss).
func lane(l int) int { return 8 * (l/2 + 4*(l%2)) }

// lanes packs a leaf scan's windows, on the nibble grid, into the lane
// words a nibble row is tested against (rowMiss): lane l of lo is
// 128 − column l's lower end, clamped to 16, and of hi 128 + its upper
// end, clamped to 15; the clamps pass the same nibbles. A column the row
// does not hold — D2 without a second vantage point, the PATH past qlo —
// gets [0, 15], which every nibble passes.
func lanes(d1lo, d1hi, d2lo, d2hi uint16, hasSV2 bool, qlo, qhi []uint16) (lo, hi uint64) {
	hi = 0x0f0f0f0f0f0f0f0f
	put := func(l int, a, b uint16) {
		lo |= uint64(min(a, nibbleTop+1)) << lane(l)
		hi = hi&^(0xff<<lane(l)) | uint64(min(b, nibbleTop))<<lane(l)
	}
	put(0, d1lo, d1hi)
	if hasSV2 {
		put(1, d2lo, d2hi)
	}
	for l, a := range qlo {
		put(2+l, a, qhi[l])
	}
	return laneTop - lo, laneTop | hi
}

// rowMiss tests the nibble row x against the lane words of lanes and
// returns the lanes it fails, each as the top bit of its byte: zero when
// every column is inside its window. The row's nibbles are spread to
// byte lanes y, and then lane l of y + lo is 128 + y_l − lo_l, whose top
// bit is set exactly when y_l ≥ lo_l, and of hi − y 128 + hi_l − y_l, set
// exactly when hi_l ≥ y_l; no lane's sum or difference leaves [112, 143],
// so none carries or borrows into the next (docs/CORRECTNESS.md §2). Two
// masks and a shift spread the row, where three shift-or-mask steps in
// column order took a third of the skip loop's time more.
func rowMiss(x uint32, lo, hi uint64) uint64 {
	y := uint64(x&0x0f0f0f0f) | uint64(x>>4&0x0f0f0f0f)<<32
	return (y+lo)&(hi-y)&laneTop ^ laneTop
}

// window returns the codes lo16 ≤ c ≤ hi16 of the values inside [lo, hi]
// on the grid of step. The divisions are exact, so no code in the window
// is lost and — off the ends of the grid — none outside it is admitted; a
// bound that overflows, underflows or is NaN (Inf − Inf under an idle
// filter) moves outward.
func window(lo, hi, step float64) (lo16, hi16 uint16) {
	lo, hi = lo/step, hi/step
	switch {
	case lo > idleCode:
		lo16 = idleCode
	case lo > 0:
		lo16 = uint16(lo)
		if float64(lo16) < lo {
			lo16++ // the ceiling
		}
	}
	switch {
	case hi < 0:
	case hi < idleCode:
		hi16 = uint16(hi) // the floor
	default:
		hi16 = idleCode
	}
	return lo16, hi16
}

// knnWindow returns the codes lo ≤ c ≤ hi (lo > hi when there are none)
// that a kNN bound keeps on the grid of step: those with
// !(|d − c·step| − s ≥ b), the float comparison of a bound decoded from
// the code, to the last rounding. The leaf scan's columns take s = 0 and
// b = τ′/(1+ε) + slack, the cascade's s = cslack and b = τ′/(1+ε). c·step
// is exact and subtraction rounds monotonically, so d − c·step never
// rises as c does: while it is above zero the kept codes are a run that
// ends where it crosses, past that a run that starts there, and together
// one interval. window guesses its ends and the predicate settles each
// (settle). A NaN d or b keeps every code; b is never −Inf (it bounds a
// distance).
func knnWindow(d, s, b, step float64) (lo, hi uint16) {
	f := func(c int) float64 { return d - float64(c)*step }
	keep := func(c int) bool { return !(abs(f(c))-s >= b) }
	glo, ghi := window(d-(b+s), d+(b+s), step)
	// lo is the first code kept or past the crossing, hi+1 the first code
	// neither kept nor before it.
	l := settle(int(glo), func(c int) bool { return f(c) < 0 || keep(c) })
	if l > idleCode || !keep(l) {
		return 1, 0
	}
	h := settle(int(ghi)+1, func(c int) bool { return !(f(c) > 0 || keep(c)) })
	return uint16(l), uint16(h - 1)
}

// settle returns the first c in [0, 65536] at which ok holds, for an ok
// that fails below that code and holds from it on; 65536 stands for none
// and is never tested. It tests the guess g, then its neighbour on the
// side the first test points to, and bisects what is left: at most 18
// tests, two when the guess is at most one code off.
func settle(g int, ok func(int) bool) int {
	lo, hi := 0, 1<<16
	for tests := 0; lo < hi; tests++ {
		m := lo + (hi-lo)/2
		if tests < 2 {
			m = min(max(g, lo), hi-1)
		}
		if ok(m) {
			hi, g = m, m-1
		} else {
			lo, g = m+1, m+1
		}
	}
	return lo
}
