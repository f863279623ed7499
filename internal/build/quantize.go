package build

import (
	"mvptree/internal/metric"
	"mvptree/internal/quant"
)

// QuantizeVectors trains a quantized companion representation over the
// vectors held in groups (one group per leaf) and encodes each group
// into a shared arena, returning per-group views parallel to the input.
// It is the construction half of the opt-in quantized pre-filter behind
// the index packages' EnableQuantize methods.
//
// It is generic so index packages can call it on []T leaves without
// knowing T; it reports false — callers then leave the pre-filter off —
// when T is not []float64 or the dataset cannot be quantized (empty,
// inconsistent dimensions, non-finite coordinates).
func QuantizeVectors[T any](groups [][]T, kind metric.QuantKind, mode quant.Mode) (*quant.Quantized, bool) {
	vecGroups := make([][][]float64, 0, len(groups))
	for _, g := range groups {
		vg, ok := any(g).([][]float64)
		if !ok {
			return nil, false
		}
		vecGroups = append(vecGroups, vg)
	}
	q, err := quant.Build(kind, mode, vecGroups)
	if err != nil {
		return nil, false
	}
	return q, true
}
