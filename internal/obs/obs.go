// Package obs is the query-side observability layer: per-query latency
// and distance-count telemetry plus pluggable trace hooks, threaded
// through every index's search path behind a nil-check fast path that
// costs nothing when disabled.
//
// The paper evaluates indexes by one number — distance computations per
// query — but a serving system needs to see where those computations go
// while queries run: how latency distributes, how often the D-bound and
// PATH filters fire, how many shells each traversal prunes. obs
// provides two complementary instruments:
//
//   - Observer: a lock-free sharded aggregator. Each query contributes
//     one latency sample, one distance-count sample, and its
//     index.SearchStats breakdown to a shard chosen round-robin (or
//     pinned per worker by the batch executor, which makes per-shard
//     attribution deterministic). Snapshots merge shards into plain
//     mergeable values whose totals are exact — with an Observer
//     attached, the snapshot's distance total equals the atomic
//     metric.Counter delta for the same queries.
//
//   - Tracer: a per-event hook interface (query start/end, node visits,
//     filter prunes, distance computations) for debugging and ad-hoc
//     analysis. Tracers see events inline on the query path and are
//     expected to be cheap; unlike the Observer they are invoked
//     synchronously and un-sharded, so a Tracer used from concurrent
//     queries must be safe for concurrent use.
//
// Both are optional and independent: a nil Observer and nil Tracer (the
// default) leave the search paths on a branch-predictable nil-check
// with zero allocations.
package obs

import (
	"time"

	"mvptree/internal/index"
)

// Kind distinguishes the two query shapes the layer meters.
type Kind uint8

const (
	KindRange Kind = iota
	KindKNN

	numKinds = 2
)

// String returns the snake-case name used in JSON and expvar exports.
func (k Kind) String() string {
	switch k {
	case KindRange:
		return "range"
	case KindKNN:
		return "knn"
	}
	return "unknown"
}

// Filter identifies which pruning rule rejected candidates, mirroring
// the attribution fields of index.SearchStats.
type Filter uint8

const (
	// FilterShell: a subtree (vp-tree shell, mvp-tree region, GNAT
	// range, hyperplane side, ball) was skipped wholesale.
	FilterShell Filter = iota
	// FilterD: a leaf candidate was rejected by a stored
	// vantage-point distance (the paper's Observation 1 D-bound).
	FilterD
	// FilterPath: a leaf candidate was rejected by its PATH of
	// ancestor vantage-point distances (Observation 2).
	FilterPath
	// FilterCascade: a leaf candidate was rejected by the bound
	// cascade — the triangle-inequality lower bound over the tree's
	// pivots, paid for at the start of the query (internal/cascade).
	FilterCascade
	// FilterQuantized: a leaf candidate's exact float64 evaluation was
	// skipped because the quantized companion representation's lower
	// bound certified the distance exceeds the threshold
	// (internal/quant). Unlike the other filters this does not change
	// any count in index.SearchStats — a quantize-pruned candidate is
	// still charged as one computed distance, exactly as an abandoned
	// DistanceUpTo call would be — so it is surfaced only here and in
	// SearchTotals.FilteredByQuantized.
	FilterQuantized
)

// String returns the snake-case name used in trace output.
func (f Filter) String() string {
	switch f {
	case FilterShell:
		return "shell"
	case FilterD:
		return "d_bound"
	case FilterPath:
		return "path"
	case FilterCascade:
		return "cascade"
	case FilterQuantized:
		return "quantized"
	}
	return "unknown"
}

// Tracer receives per-event callbacks from a search path. All methods
// are called synchronously on the query's goroutine; implementations
// used under concurrent queries must be safe for concurrent use.
//
// Event granularity varies by structure: every structure emits
// OnQueryStart and OnQueryDone; tree structures additionally emit
// OnNodeVisit per internal node or leaf, OnFilterPrune per pruning
// decision, and OnDistance per query-to-object distance evaluation
// (vantage points and leaf candidates alike).
type Tracer interface {
	// OnQueryStart fires before the traversal begins.
	OnQueryStart(kind Kind)
	// OnNodeVisit fires when the traversal enters a node; leaf
	// reports whether it is a leaf.
	OnNodeVisit(leaf bool)
	// OnFilterPrune fires when filter f rejects n candidates (for
	// FilterShell, n is the number of subtrees or regions skipped by
	// one decision; for FilterD/FilterPath it is the number of leaf
	// candidates eliminated).
	OnFilterPrune(f Filter, n int)
	// OnDistance fires when the traversal evaluates n distances
	// between the query and stored objects.
	OnDistance(n int)
	// OnQueryDone fires after the traversal with the query's wall
	// time and its full SearchStats breakdown.
	OnQueryDone(kind Kind, elapsed time.Duration, stats index.SearchStats)
}

// MultiTracer fans every event out to each member in order.
type MultiTracer []Tracer

func (m MultiTracer) OnQueryStart(kind Kind) {
	for _, t := range m {
		t.OnQueryStart(kind)
	}
}

func (m MultiTracer) OnNodeVisit(leaf bool) {
	for _, t := range m {
		t.OnNodeVisit(leaf)
	}
}

func (m MultiTracer) OnFilterPrune(f Filter, n int) {
	for _, t := range m {
		t.OnFilterPrune(f, n)
	}
}

func (m MultiTracer) OnDistance(n int) {
	for _, t := range m {
		t.OnDistance(n)
	}
}

func (m MultiTracer) OnQueryDone(kind Kind, elapsed time.Duration, stats index.SearchStats) {
	for _, t := range m {
		t.OnQueryDone(kind, elapsed, stats)
	}
}
