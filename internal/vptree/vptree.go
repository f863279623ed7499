// Package vptree builds the vantage-point tree of Uhlmann [Uhl91] and
// Yiannilos [Yia93], the structure the paper (§3.3) uses as its main
// comparison baseline for the mvp-tree.
//
// A vp-tree node holds one vantage point chosen from the data. The
// distances from the vantage point to every other point below the node
// are computed at construction time, the points are ordered by that
// distance and split into m groups of equal cardinality ("spherical
// cuts"), and each group is indexed by a recursively built child. Range
// search prunes whole subtrees with the triangle inequality: a child
// whose spherical shell does not intersect the query ball cannot contain
// an answer.
//
// The paper defines the mvp-tree as this tree plus a second vantage
// point per node and p retained distances per leaf point, and that is how
// it is implemented: the tree here is internal/mvp's at one vantage point
// per node with nothing retained, and this package is its constructor.
// Search, SearchBatch, the farthest queries, the cascade, the quantized
// pre-filter, Save, Load and Validate are the core's.
package vptree

import (
	"errors"
	"io"

	"mvptree/internal/build"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// Build is the shared construction options (Workers, Seed) every index
// package embeds; see build.Options.
type Build = build.Options

// SelectionStrategy picks how vantage points are chosen during
// construction.
type SelectionStrategy int

const (
	// SelectRandom picks a uniformly random point, the default the
	// paper uses ("the random function used to pick vantage points").
	SelectRandom SelectionStrategy = iota
	// SelectBestSpread implements the heuristic of [Yia93]: sample a
	// few candidate vantage points, estimate for each the spread of
	// its distances to one random subset of the node's points (their
	// variance), and keep the candidate with the largest spread
	// (build.SelectVantage, at the budget the mvp-tree's default uses).
	SelectBestSpread
)

// Options configure construction of a vp-tree.
type Options struct {
	// Build holds the shared construction knobs: Workers spreads
	// construction's distance computations and subtree builds over a
	// bounded goroutine pool (the tree built is identical for every
	// worker count), and Seed makes vantage selection deterministic.
	Build
	// Order is the branching factor m ≥ 2. Each node partitions its
	// points into Order equal-cardinality spherical shells. The
	// default is 2, the binary vp-tree.
	Order int
	// LeafCapacity is the maximum number of points in a leaf. The
	// default is 1, the classic vp-tree, which keeps partitioning all the
	// way down. A larger leaf promotes one of its points to vantage point
	// and stores the others' distances to it (a 2-byte code each), so a query
	// pays for that one and for the others its distance does not exclude.
	LeafCapacity int
	// Selection chooses the vantage-point selection strategy.
	Selection SelectionStrategy
}

// core maps the options onto the core's: one vantage point per node, the
// leaf's own vantage point counted out of its capacity, no PATH.
func (o Options) core() (mvp.Options, error) {
	// Checked here so that the errors name this package and its fields.
	err := o.Build.Validate("vptree")
	switch {
	case err != nil:
	case o.Order != 0 && o.Order < 2:
		err = errors.New("vptree: Order must be at least 2")
	case o.LeafCapacity < 0:
		err = errors.New("vptree: LeafCapacity must be at least 1")
	}
	if err != nil {
		return mvp.Options{}, err
	}
	k := -1 // the core's genuine zero
	if o.LeafCapacity > 1 {
		k = o.LeafCapacity - 1
	}
	return mvp.Options{
		Build: o.Build, Vantages: 1, Partitions: o.Order, LeafCapacity: k, PathLength: -1,
		RandomFirstVantage: o.Selection == SelectRandom,
	}, nil
}

// Tree is an m-way vantage-point tree over a fixed item set: the core's
// tree, built with one vantage point per node.
type Tree[T any] = mvp.Tree[T]

// ItemEncoder and ItemDecoder serialize one item for Save and Load.
type (
	ItemEncoder[T any] = mvp.ItemEncoder[T]
	ItemDecoder[T any] = mvp.ItemDecoder[T]
)

// New builds a vp-tree over items using the counted metric dist. The
// items slice is not retained. Distance computations made during
// construction are visible on dist and also recorded in BuildCost.
func New[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], error) {
	t, _, err := NewWithStats(items, dist, opts)
	return t, err
}

// NewWithStats is New plus the shared construction report: distance
// computations, wall time, node count and depth (build.Stats).
func NewWithStats[T any](items []T, dist *metric.Counter[T], opts Options) (*Tree[T], build.Stats, error) {
	o, err := opts.core()
	if err != nil {
		return nil, build.Stats{}, err
	}
	return mvp.NewWithStats(items, dist, o)
}

// Load reads a tree written by Save; the stream says how many vantage
// points its nodes have, so this is the core's loader.
func Load[T any](r io.Reader, dist *metric.Counter[T], dec ItemDecoder[T]) (*Tree[T], error) {
	return mvp.Load(r, dist, dec)
}
