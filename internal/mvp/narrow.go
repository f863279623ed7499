package mvp

import "math"

// The leaf filter stores float32s and stays sound because the tree knows
// slack, a bound on |x − x₃₂| over every stored distance:
// |d(q,v) − x| ≥ |d(q,v) − x₃₂| − slack, so range windows widen by slack
// and kNN/farthest bounds give it back (docs/CORRECTNESS.md §2). Save
// keeps only the stored values, so slack is derived from them: narrow
// rounds an inexact value to odd, slackOf charges an odd value the gap
// to its neighbour. Integers below 2²³ are exact and even: an
// integer-valued metric has slack 0 and filters as a float64 leaf would.

// narrow returns the float32 stored for the distance x: x itself when
// float32 holds it (±Inf included), else the float32 neighbour of x with
// an odd last bit — x truncated toward zero with the bit then set, which
// is MaxFloat32 beyond the range and never zero.
func narrow(x float64) float32 {
	v := float32(x)
	w := float64(v)
	if w == x || x != x {
		return v
	}
	b := math.Float32bits(v)
	if math.Abs(w) > math.Abs(x) {
		b-- // v was rounded away from zero (to ±Inf past the range)
	}
	return math.Float32frombits(b | 1)
}

// slackOf bounds what narrow may have rounded off the stored values: the
// gap above the largest odd finite one (+Inf when a distance was clamped
// to MaxFloat32: the filter stays sound and idles).
func slackOf(stored []float32) float64 {
	var top uint32
	for _, v := range stored {
		b := math.Float32bits(v) &^ (1 << 31)
		top = max(top, b&-(b&1)) // b when its last bit is set, else 0
	}
	switch {
	case top == 0:
		return 0
	case top > 0x7f800000: // an odd NaN: no bound holds
		return math.Inf(1)
	}
	return float64(math.Float32frombits(top+1)) - float64(math.Float32frombits(top))
}
