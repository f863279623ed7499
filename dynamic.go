package mvptree

import (
	"io"

	"mvptree/internal/dynamic"
	"mvptree/internal/metric"
)

// DynamicStore is a mutable similarity index: an mvp-tree plus an
// overflow buffer and tombstones. It addresses the open problem the
// paper closes with (§6) — insertions and deletions without unbalancing
// the tree — by rent-or-buy: the first write after the distances that
// queries and deletes have spent on the buffer reach what the last build
// cost rebuilds the tree, which spends at most twice what the best
// rebuild schedule chosen in hindsight would, whatever the mix of reads
// and writes. The tree never measures a tombstoned item as a candidate,
// and a query measures only the buffered items that the triangle
// inequality over the tree root's vantage points leaves in reach. See
// internal/dynamic for the scheme's details.
type DynamicStore[T any] = dynamic.Store[T]

// DynamicOptions configure a DynamicStore: the options of the trees it
// builds. When to rebuild is the store's rule and has no option.
type DynamicOptions = dynamic.Options

// NewDynamic builds a dynamic store over the initial items; the build's
// distances are the price its first rebuild waits for. WithObserver
// and WithTracer attach telemetry; WithCounter is ignored — the store
// owns its counter, which the registry equips with dist's kernels (read
// it via DistanceCount) — and WithCascade and WithQuantized
// are refused with an error: the store has neither mode.
func NewDynamic[T any](items []T, dist DistanceFunc[T], opts DynamicOptions, ixOpts ...IndexOption[T]) (*DynamicStore[T], error) {
	cfg := resolveIndexConfig(dist, ixOpts)
	s, err := dynamic.New(items, metric.DistanceFunc[T](dist), opts)
	if err = cfg.equip(s, err); err != nil {
		return nil, err
	}
	return s, nil
}

// SaveDynamic compacts the store (a rebuild: tombstones dropped, the
// overflow buffer folded into the tree; none if there is neither) and
// writes it to w.
func SaveDynamic[T any](w io.Writer, s *DynamicStore[T], enc ItemEncoder[T]) error {
	return s.Save(w, dynamic.ItemEncoder[T](enc))
}

// LoadDynamic reads a store written by SaveDynamic; dist must be the
// metric it was built with.
func LoadDynamic[T any](r io.Reader, dist DistanceFunc[T], dec ItemDecoder[T]) (*DynamicStore[T], error) {
	return dynamic.Load(r, metric.DistanceFunc[T](dist), dynamic.ItemDecoder[T](dec))
}
