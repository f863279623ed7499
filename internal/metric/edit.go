package metric

import (
	"math/bits"
	"sync"
)

// Edit returns the Levenshtein edit distance between two strings: the
// minimum number of single-character insertions, deletions and
// substitutions needed to turn a into b. Edit distance is a metric and is
// the canonical example of a non-spatial metric domain in the paper
// (§3.1, text databases). Distances are always non-negative integers,
// which also makes Edit suitable for the discrete-distance BK-tree.
//
// The strings are compared byte-wise; for the ASCII corpora used in this
// repository that coincides with character-wise comparison.
//
// When the shorter string (after the common prefix and suffix are
// dropped) fits a machine word — 64 bytes — the distance comes from the
// bit-parallel column sweep of editBits, which touches no heap; longer
// pairs run the two-row dynamic program over pooled rows.
func Edit(a, b string) float64 {
	a, b = trimCommon(a, b)
	if len(b) == 0 {
		return float64(len(a))
	}
	if len(b) <= wordBits {
		return float64(editBits(a, b, len(a)))
	}
	return float64(editRows(a, b, len(a)))
}

// EditUpTo is the early-abandoning Levenshtein distance under the
// BoundedDistanceFunc contract. With k = ⌊bound⌋ it picks, from the
// bound and the lengths alone, the cheapest kernel that can certify
// "distance > k": the banded dynamic program (2k+1 cells per row) when
// the band is narrow, the bit-parallel sweep with its
// score − remaining cut-off when the band would be wider than a word's
// worth of bit operations, and the exact kernel when the bound is too
// large to ever cut off.
func EditUpTo(a, b string, bound float64) float64 {
	a, b = trimCommon(a, b)
	if len(b) == 0 {
		return float64(len(a))
	}
	if !(bound < float64(len(a))) {
		// No pair of these lengths is farther apart than len(a), so
		// nothing can be abandoned (this is also where +Inf lands).
		return Edit(a, b)
	}
	k := 0
	if bound > 0 {
		k = int(bound)
	}
	if len(a)-len(b) > k {
		// At least len(a)-len(b) insertions are unavoidable, and that
		// alone already exceeds the bound.
		return float64(len(a) - len(b))
	}
	if len(b) > wordBits {
		return float64(editRows(a, b, k))
	}
	if k > bandMaxHalfwidth {
		return float64(editBits(a, b, k))
	}
	var rows [2 * (wordBits + 1)]int32
	return float64(editBand(a, b, k, rows[:len(b)+1], rows[wordBits+1:wordBits+2+len(b)]))
}

// wordBits is the pattern length one machine word of the bit-parallel
// kernel covers.
const wordBits = 64

// bandMaxHalfwidth is the widest band halfwidth for which the banded
// program beats the bit-parallel sweep on strings of at most wordBits
// bytes: the sweep pays a fixed match-table set-up plus a dozen word
// operations per column, the band 2k+1 cells per column. Measured on
// 8- to 64-byte strings the band is ahead at k = 1 (the r = 1 range
// queries of the word workloads) and behind from k = 2 or 3 on;
// BenchmarkEditDistance's bound=1 and bound=4 rows sit either side.
const bandMaxHalfwidth = 1

// trimCommon drops the common prefix and suffix of a and b — they
// contribute nothing to the edit distance — and returns the remainders
// with the longer one first.
func trimCommon(a, b string) (string, string) {
	if len(a) < len(b) {
		a, b = b, a
	}
	i := 0
	for i < len(b) && a[i] == b[i] {
		i++
	}
	a, b = a[i:], b[i:]
	for len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	return a, b
}

// editBits is the bit-parallel Levenshtein distance of Myers (1999) in
// Hyyrö's (2001) edit-distance formulation, for 1 ≤ len(b) ≤ wordBits.
// One column of the dynamic-programming table is held as two words of
// vertical deltas (pv: +1, mv: −1) over the rows of b; each byte of a
// advances the column with a constant number of word operations, and
// score tracks the bottom cell. The bottom row changes by at most one
// per column, so once score minus the number of columns left exceeds k
// the final distance must too, and that lower bound is returned as the
// certificate (pass k ≥ len(a) for the exact distance: the cut-off can
// then never fire).
func editBits(a, b string, k int) int {
	var peq [256]uint64
	matchTable(&peq, b)
	var (
		pv    = ^uint64(0)
		mv    uint64
		score = len(b)
		last  = uint64(1) << uint(len(b)-1)
	)
	for i := 0; i < len(a); i++ {
		pv, mv, score = editColumn(peq[a[i]], pv, mv, last, score)
		if low := score - (len(a) - 1 - i); low > k {
			return low
		}
	}
	return score
}

// matchTable fills the zeroed peq with b's match masks: bit i of peq[c]
// is set where b[i] == c, for 1 ≤ len(b) ≤ wordBits.
func matchTable(peq *[256]uint64, b string) {
	for i := 0; i < len(b); i++ {
		peq[b[i]] |= 1 << uint(i)
	}
}

// editColumn advances the column of editBits by one text byte whose
// match mask is eq: pv and mv are the column's vertical +1 and −1
// deltas, score its bottom cell, last the bottom row's bit.
func editColumn(eq, pv, mv, last uint64, score int) (uint64, uint64, int) {
	xv := eq | mv
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	if ph&last != 0 {
		score++
	} else if mh&last != 0 {
		score--
	}
	ph = ph<<1 | 1
	return mh<<1 | ^(xv | ph), ph & xv, score
}

// rowColumn advances a column as editColumn does, without the score:
// EditRow reads the distance off the last column (rowFinish), so a
// column is a dozen word operations and no branch.
func rowColumn(eq, pv, mv uint64) (uint64, uint64) {
	xv := eq | mv
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	ph = ph<<1 | 1
	return mh<<1 | ^(xv | ph), ph & xv
}

// EditRow is Edit from one point to many under the RowDistanceFunc
// contract: out[i] = Edit(items[ids[i]], p). Edit sets up p's match
// table for every pair; here a p of 1 to wordBits bytes has it built
// once, and each item is swept against it as the text, exactly — no
// trimCommon and no cut-off, which only pay back per pair. The items go
// four at a time: one column is a dozen word operations that each wait
// on the last, so four independent columns interleaved fill the cycles
// one leaves idle. The four run together over their common length and
// each finishes its own remainder. An empty or longer p runs Edit per
// pair.
func EditRow(p string, items []string, ids []int32, out []float64) {
	out = out[:len(ids)]
	if len(p) == 0 || len(p) > wordBits {
		for i, id := range ids {
			out[i] = Edit(items[id], p)
		}
		return
	}
	var peq [256]uint64
	matchTable(&peq, p)
	mask := ^uint64(0) >> (wordBits - len(p))
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		a0, a1, a2, a3 := items[ids[i]], items[ids[i+1]], items[ids[i+2]], items[ids[i+3]]
		n := min(len(a0), len(a1), len(a2), len(a3))
		pv0, mv0 := ^uint64(0), uint64(0)
		pv1, mv1 := pv0, mv0
		pv2, mv2 := pv0, mv0
		pv3, mv3 := pv0, mv0
		t0, t1, t2, t3 := a0[:n], a1[:n], a2[:n], a3[:n]
		for j := 0; j < len(t0); j++ {
			pv0, mv0 = rowColumn(peq[t0[j]], pv0, mv0)
			pv1, mv1 = rowColumn(peq[t1[j]], pv1, mv1)
			pv2, mv2 = rowColumn(peq[t2[j]], pv2, mv2)
			pv3, mv3 = rowColumn(peq[t3[j]], pv3, mv3)
		}
		out[i] = float64(rowFinish(&peq, a0, n, pv0, mv0, mask))
		out[i+1] = float64(rowFinish(&peq, a1, n, pv1, mv1, mask))
		out[i+2] = float64(rowFinish(&peq, a2, n, pv2, mv2, mask))
		out[i+3] = float64(rowFinish(&peq, a3, n, pv3, mv3, mask))
	}
	for ; i < len(ids); i++ {
		out[i] = float64(rowFinish(&peq, items[ids[i]], 0, ^uint64(0), 0, mask))
	}
}

// rowFinish sweeps the text a on from its byte j, (pv, mv) being the
// column after a[:j], and returns the last column's bottom cell: the top
// cell is len(a), and the cells below it step by the vertical deltas of
// the pattern's rows, the bits of mask (carries and shifts only move up
// the word, so the bits above the pattern never reach them).
func rowFinish(peq *[256]uint64, a string, j int, pv, mv, mask uint64) int {
	for ; j < len(a); j++ {
		pv, mv = rowColumn(peq[a[j]], pv, mv)
	}
	return len(a) + bits.OnesCount64(pv&mask) - bits.OnesCount64(mv&mask)
}

// rowPool recycles the dynamic-programming rows of pairs whose shorter
// string exceeds wordBits bytes.
var rowPool = sync.Pool{New: func() any { return new([]int32) }}

// editRows runs editBand over pooled rows, for a shorter string too
// long for the stack rows and the bit-parallel kernel. k ≥ len(a)
// makes the band the whole table, i.e. the exact two-row program.
func editRows(a, b string, k int) int {
	p := rowPool.Get().(*[]int32)
	if cap(*p) < 2*(len(b)+1) {
		*p = make([]int32, 2*(len(b)+1))
	}
	rows := (*p)[:2*(len(b)+1)]
	d := editBand(a, b, k, rows[:len(b)+1], rows[len(b)+1:])
	rowPool.Put(p)
	return d
}

// editBand is the banded two-row Levenshtein program with halfwidth k
// over caller-supplied rows of len(b)+1 cells; len(a) ≥ len(b) ≥ 1.
// Only cells within k of the diagonal can hold a value ≤ k, so the band
// suffices to decide whether the true distance is within k; cells
// outside it act as +∞. A result ≤ k is exact; a result > k may be a
// band overestimate, but then the true distance also exceeds k — for
// the integer-valued edit distance, exceeds any bound with ⌊bound⌋ = k —
// which is all the BoundedDistanceFunc contract claims.
func editBand(a, b string, k int, prev, cur []int32) int {
	for j := 0; j <= len(b) && j <= k; j++ {
		prev[j] = int32(j)
	}
	for i := 1; i <= len(a); i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
			cur[0] = int32(i)
		}
		hi := i + k
		if hi > len(b) {
			hi = len(b)
		}
		if lo > hi {
			return k + 1
		}
		ca := a[i-1]
		rowMin := int32(1 << 30)
		for j := lo; j <= hi; j++ {
			m := prev[j-1] // substitution or match
			if ca != b[j-1] {
				m++
			}
			// prev[j] is outside the band of row i-1 when j == i+k.
			if j != i+k {
				if d := prev[j] + 1; d < m { // deletion from a
					m = d
				}
			}
			// cur[j-1] is outside the band of row i when j == i-k.
			if j != i-k {
				if d := cur[j-1] + 1; d < m { // insertion into a
					m = d
				}
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if int(rowMin) > k {
			// Every in-band cell exceeds k and values are monotone down
			// the table, so the true distance exceeds the bound.
			return int(rowMin)
		}
		prev, cur = cur, prev
	}
	return int(prev[len(b)])
}
