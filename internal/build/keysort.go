// The functions below are the Go standard library's pattern-defeating
// quicksort (slices/zsortanyfunc.go as of Go 1.24, generated from
// sort/gen_sort_variants.go) with the element type fixed to Key and the
// comparison fixed to "a.D < b.D", so every comparison is two loads and
// a compare instead of a call through a func value.
//
// Copyright 2022 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the Go distribution's LICENSE file.

package build

import "math/bits"

// sortKeys orders keys ascending by distance alone. The algorithm makes
// the same comparisons and swaps, in the same order, as sort.Slice and
// slices.SortFunc make when they are shown the distances only, so the
// arrangement it leaves among equal distances is theirs
// (TestSortKeysMatchesStandardLibrary): trees over tie-heavy metrics
// keep the leaf order they had when construction called sort.Slice,
// and keep it whatever a later toolchain does to its own sort.
func sortKeys(keys []Key) {
	pdqsortKeys(keys, 0, len(keys), bits.Len(uint(len(keys))))
}

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift paper: https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << bits.Len(uint(length))
}

// insertionSortKeys sorts data[a:b] using insertion sort.
func insertionSortKeys(data []Key, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && (data[j].D < data[j-1].D); j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDownKeys implements the heap property on data[lo:hi].
// first is an offset into the array where the root of the heap lies.
func siftDownKeys(data []Key, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && (data[first+child].D < data[first+child+1].D) {
			child++
		}
		if !(data[first+root].D < data[first+child].D) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSortKeys(data []Key, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownKeys(data, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDownKeys(data, lo, i, first)
	}
}

// pdqsortKeys sorts data[a:b].
// The algorithm based on pattern-defeating quicksort(pdqsort), but without the optimizations from BlockQuicksort.
// pdqsort paper: https://arxiv.org/pdf/2106.05123.pdf
// C++ implementation: https://github.com/orlp/pdqsort
// Rust implementation: https://docs.rs/pdqsort/latest/pdqsort/
// limit is the number of allowed bad (very unbalanced) pivots before falling back to heapsort.
func pdqsortKeys(data []Key, a, b, limit int) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		length := b - a

		if length <= maxInsertion {
			insertionSortKeys(data, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortKeys(data, a, b)
			return
		}

		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatternsKeys(data, a, b)
			limit--
		}

		pivot, hint := choosePivotKeys(data, a, b)
		if hint == decreasingHint {
			reverseRangeKeys(data, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			// The idea came from Rust's implementation.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSortKeys(data, a, b) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !(data[a-1].D < data[pivot].D) {
			mid := partitionEqualKeys(data, a, b, pivot)
			a = mid
			continue
		}

		mid, alreadyPartitioned := partitionKeys(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			pdqsortKeys(data, a, mid, limit)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			pdqsortKeys(data, mid+1, b, limit)
			b = mid
		}
	}
}

// partitionKeys does one quicksort partition.
// Let p = data[pivot]
// Moves elements in data[a:b] around, so that data[i]<p and data[j]>=p for i<newpivot and j>newpivot.
// On return, data[newpivot] = p
func partitionKeys(data []Key, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for i <= j && (data[i].D < data[a].D) {
		i++
	}
	for i <= j && !(data[j].D < data[a].D) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		for i <= j && (data[i].D < data[a].D) {
			i++
		}
		for i <= j && !(data[j].D < data[a].D) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqualKeys partitions data[a:b] into elements equal to data[pivot] followed by elements greater than data[pivot].
// It assumed that data[a:b] does not contain elements smaller than the data[pivot].
func partitionEqualKeys(data []Key, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for {
		for i <= j && !(data[a].D < data[i].D) {
			i++
		}
		for i <= j && (data[a].D < data[j].D) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortKeys partially sorts a slice, returns true if the slice is sorted at the end.
func partialInsertionSortKeys(data []Key, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !(data[i].D < data[i-1].D) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !(data[j].D < data[j-1].D) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !(data[j].D < data[j-1].D) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatternsKeys scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatternsKeys(data []Key, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivotKeys chooses a pivot in data[a:b].
//
// [0,8): chooses a static pivot.
// [8,shortestNinther): uses the simple median-of-three method.
// [shortestNinther,∞): uses the Tukey ninther method.
func choosePivotKeys(data []Key, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = medianAdjacentKeys(data, i, &swaps)
			j = medianAdjacentKeys(data, j, &swaps)
			k = medianAdjacentKeys(data, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = medianKeys(data, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2Keys returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func order2Keys(data []Key, a, b int, swaps *int) (int, int) {
	if data[b].D < data[a].D {
		*swaps++
		return b, a
	}
	return a, b
}

// medianKeys returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func medianKeys(data []Key, a, b, c int, swaps *int) int {
	a, b = order2Keys(data, a, b, swaps)
	b, c = order2Keys(data, b, c, swaps)
	a, b = order2Keys(data, a, b, swaps)
	return b
}

// medianAdjacentKeys finds the median of data[a - 1], data[a], data[a + 1] and stores the index into a.
func medianAdjacentKeys(data []Key, a int, swaps *int) int {
	return medianKeys(data, a-1, a, a+1, swaps)
}

func reverseRangeKeys(data []Key, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
