package mvptree

import "mvptree/internal/gmvp"

// GeneralTree is the generalized multi-vantage-point tree: any number v
// of vantage points per node, fanout mᵛ. It realizes the paper's §4.2
// remark that "more than 2 vantage points can be kept in one node";
// v = 2 coincides with Tree, v = 1 with a bucketed m-way vp-tree that
// retains PATH distances.
type GeneralTree[T any] = gmvp.Tree[T]

// GeneralOptions configure a GeneralTree: Vantages (v), Partitions (m),
// LeafCapacity and PathLength.
type GeneralOptions = gmvp.Options

// NewGeneral builds a generalized mvp-tree with a fresh internal
// Counter unless WithCounter overrides it.
func NewGeneral[T any](items []T, dist DistanceFunc[T], opts GeneralOptions, ixOpts ...IndexOption[T]) (*GeneralTree[T], error) {
	t, _, err := NewGeneralWithStats(items, dist, opts, ixOpts...)
	return t, err
}

// NewGeneralWithStats is NewGeneral plus the construction report.
func NewGeneralWithStats[T any](items []T, dist DistanceFunc[T], opts GeneralOptions, ixOpts ...IndexOption[T]) (*GeneralTree[T], BuildStats, error) {
	cfg := resolveIndexConfig(dist, ixOpts)
	t, bs, err := gmvp.NewWithStats(items, cfg.counter, opts)
	if err = cfg.equip(t, err); err != nil {
		return nil, bs, err
	}
	return t, bs, nil
}
