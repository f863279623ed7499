package mvptree

import (
	"fmt"
	"io"

	"mvptree/internal/cascade"
	"mvptree/internal/histogram"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
)

// StatsIndex is the instrumented query interface implemented by every
// structure in this library (and by DynamicStore): the plain Index
// methods plus the WithStats query variants and the cumulative
// DistanceCount of the paper's cost metric.
type StatsIndex[T any] = index.StatsIndex[T]

// Observer aggregates per-query telemetry — latency and distance-count
// histograms plus SearchStats totals — across concurrent queries
// without locks: recordings land in sharded atomics and Snapshot merges
// the shards. Attach one to any index with the WithObserver construction
// option (or SetObserver on a built index), or hand one to the batch
// executor via BatchOptions.Observer.
type Observer = obs.Observer

// NewObserver returns an Observer with the given shard count (values
// <= 0 mean GOMAXPROCS; the count is rounded up to a power of two).
// Totals are exact for any shard count; sharding only spreads write
// contention.
func NewObserver(shards int) *Observer { return obs.NewObserver(shards) }

// Snapshot is a point-in-time merge of an Observer's shards: query
// counts, distance totals, SearchStats sums, and log-scaled latency and
// distance-count histograms with per-kind quantiles. Snapshots merge
// associatively (Snapshot.Merge), so per-worker or per-structure
// snapshots can be combined exactly.
type Snapshot = obs.Snapshot

// KindSnapshot is the per-query-kind (range / knn) slice of a Snapshot.
type KindSnapshot = obs.KindSnapshot

// SearchTotals is the int64-widened sum of per-query SearchStats inside
// a Snapshot.
type SearchTotals = obs.SearchTotals

// LogHistogram is the log₂-bucketed histogram used for latencies and
// distance counts in snapshots; it merges exactly and marshals to a
// sparse JSON form.
type LogHistogram = histogram.Log2

// Tracer receives fine-grained per-query events (query start/done, node
// visits, filter prunes, distance computations) from any index it is
// attached to via the WithTracer construction option or SetTracer.
// Implementations must be safe for concurrent use if the index serves
// concurrent queries. A nil Tracer (the default) costs only a nil check
// per event site.
type Tracer = obs.Tracer

// MultiTracer fans events out to several Tracers in order.
type MultiTracer = obs.MultiTracer

// QueryKind distinguishes range from k-nearest-neighbor queries in
// Tracer events and Observer snapshots.
type QueryKind = obs.Kind

// PruneFilter identifies which filtering mechanism rejected candidates
// in a Tracer OnFilterPrune event: the shell bounds of an internal
// node, the vantage-point distance bound (the paper's Lemma 1), the
// leaf PATH bound (Lemma 2), the cross-query bound cascade
// (WithCascade), or the quantized lower-bound pre-filter
// (WithQuantized).
type PruneFilter = obs.Filter

// Query kinds and prune filters.
const (
	KindRange = obs.KindRange
	KindKNN   = obs.KindKNN

	FilterShell     = obs.FilterShell
	FilterD         = obs.FilterD
	FilterPath      = obs.FilterPath
	FilterCascade   = obs.FilterCascade
	FilterQuantized = obs.FilterQuantized
)

// PublishExpvar publishes the observer's Snapshot under name in the
// process-wide expvar registry (served on /debug/vars by the default
// HTTP mux). Publishing a second observer under the same name rebinds
// the variable instead of panicking.
func PublishExpvar(name string, o *Observer) { obs.PublishExpvar(name, o) }

// WriteSnapshotJSON writes the observer's current Snapshot to w as
// indented JSON.
func WriteSnapshotJSON(w io.Writer, o *Observer) error { return o.WriteJSON(w) }

// IndexOption customizes the construction aspects that are generic in
// the item type and therefore cannot live in the per-structure Options
// structs: the distance Counter the index measures through, and the
// observability hooks (Observer, Tracer) its query paths report to.
type IndexOption[T any] func(*indexConfig[T])

type indexConfig[T any] struct {
	counter  *metric.Counter[T]
	observer *obs.Observer
	tracer   obs.Tracer
	cascade  *cascade.Options
	quantize quant.Mode
}

// CascadeOptions tune the bound cascade armed with WithCascade (or
// Tree.EnableCascade): Pivots is how many leaf items become pivots
// (default 16) — each costs one pass over the leaf items to arm, one
// distance per query and 2 bytes per leaf item — and Workers
// parallelizes the one-time precomputation. The zero value uses the
// defaults.
type CascadeOptions = cascade.Options

// WithCounter makes the index measure distances through an existing
// Counter instead of a fresh internal one, so construction and query
// costs accumulate where the caller wants them. DynamicStore ignores
// this option: it owns its counter, which pairs each item with an id.
func WithCounter[T any](c *Counter[T]) IndexOption[T] {
	return func(cfg *indexConfig[T]) { cfg.counter = c }
}

// WithObserver attaches an Observer to the index at construction; every
// query the index serves is recorded into it.
func WithObserver[T any](o *Observer) IndexOption[T] {
	return func(cfg *indexConfig[T]) { cfg.observer = o }
}

// WithTracer attaches a Tracer to the index at construction; every
// query the index serves streams events to it.
func WithTracer[T any](tr Tracer) IndexOption[T] {
	return func(cfg *indexConfig[T]) { cfg.tracer = tr }
}

// WithCascade arms the bound cascade on the built index: Pivots leaf
// items far from one another are chosen once and every leaf item's
// distance to each is stored beside the leaf rows (costing Pivots ×
// LeafItems distance computations, on top of construction); every query
// thereafter pays its Pivots distances up front and skips leaf
// candidates they exclude by the triangle inequality, before paying an
// exact distance. Results and their order are byte-identical with and
// without the cascade; a query computes at most Pivots distances more
// per tree than without, and where pruning pays, far fewer. Supported
// by New and NewVP (and the sharded index over them); a classic
// vp-tree (VPOptions.LeafCapacity 1, its default) keeps no leaf items
// and is left uncascaded, silently. The comparison
// structures of the paper's figures and the dynamic store have no
// cascade: their constructors return an error naming the structure
// rather than drop the option — the pivot table is this mechanism in
// standalone form — and NewLinear, which has no error to return,
// ignores it.
func WithCascade[T any](opts CascadeOptions) IndexOption[T] {
	return func(cfg *indexConfig[T]) { cfg.cascade = &opts }
}

// QuantizeMode selects the companion representation of the quantized
// lower-bound pre-filter: QuantizeOff or QuantizeSQ8 (one byte per
// coordinate).
type QuantizeMode = quant.Mode

// Quantize modes for WithQuantized.
const (
	QuantizeOff = quant.Off
	QuantizeSQ8 = quant.SQ8
)

// ParseQuantizeMode maps "off" or "sq8" to the QuantizeMode.
func ParseQuantizeMode(s string) (QuantizeMode, error) { return quant.ParseMode(s) }

// WithQuantized arms the quantized lower-bound pre-filter on the built
// index: item vectors are encoded once into a small companion arena
// (SQ8 byte codes) that leaf scans consult before the exact float64
// kernel, skipping candidates whose quantized lower bound certifies
// rejection. Results, order, SearchStats and distance
// counts are byte-identical with the filter on or off — the win is
// memory bandwidth, which dominates high-dimensional scans. Supported
// by New, NewVP and NewLinear — every other constructor returns an
// error naming its structure; the filter arms only for []float64
// items under a metric with a registered quantized shape
// (RegisterKernels) and silently stays off otherwise. Skipped
// evaluations surface as FilterQuantized trace events and in Snapshot
// search totals as filtered_by_quantized.
func WithQuantized[T any](mode QuantizeMode) IndexOption[T] {
	return func(cfg *indexConfig[T]) { cfg.quantize = mode }
}

// resolveIndexConfig applies the options, defaulting the counter to a
// fresh one over dist.
func resolveIndexConfig[T any](dist DistanceFunc[T], ixOpts []IndexOption[T]) indexConfig[T] {
	var cfg indexConfig[T]
	for _, o := range ixOpts {
		o(&cfg)
	}
	if cfg.counter == nil {
		cfg.counter = metric.NewCounter(dist)
	}
	return cfg
}

// hooked is the attachment surface every structure gains from its
// embedded obs.Hooks.
type hooked interface {
	SetObserver(*obs.Observer)
	SetTracer(obs.Tracer)
}

// equip ends every constructor: unless the build failed with err, it
// attaches the configured observer and tracer to h and switches on the
// bound cascade and the quantized pre-filter when the options ask for
// them. A structure that has no such mode refuses the option, by name
// (its type's), instead of dropping it.
func (cfg indexConfig[T]) equip(h hooked, err error) error {
	if err != nil {
		return err
	}
	if cfg.observer != nil {
		h.SetObserver(cfg.observer)
	}
	if cfg.tracer != nil {
		h.SetTracer(cfg.tracer)
	}
	if cfg.cascade != nil {
		c, ok := h.(interface {
			EnableCascade(cascade.Options) error
		})
		if !ok {
			return fmt.Errorf("mvptree: %T has no bound cascade (WithCascade)", h)
		}
		if err := c.EnableCascade(*cfg.cascade); err != nil {
			return err
		}
	}
	if cfg.quantize != quant.Off {
		q, ok := h.(interface{ EnableQuantize(quant.Mode) error })
		if !ok {
			return fmt.Errorf("mvptree: %T has no quantized pre-filter (WithQuantized)", h)
		}
		return q.EnableQuantize(cfg.quantize)
	}
	return nil
}
