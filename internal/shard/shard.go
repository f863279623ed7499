// Package shard is the partitioned serving layer: one logical index
// made of S independent per-shard index structures (mvp-trees by
// default) over a disjoint partition of the item set. Sharding buys
// three things the single-tree layout cannot offer at once:
//
//   - parallel construction with coarser grain than internal/build's
//     intra-tree forking — shards build concurrently, each with its own
//     worker budget;
//
//   - fan-out query serving: one range query visits every shard its
//     shell does not exclude (Shells), with a deterministic merge
//     (results are exactly the concatenation of per-shard answers in
//     ascending shard order); queries run beside each other through
//     the batch executor, not shards;
//
//   - cross-shard kNN bound sharing: shards are searched nearest shell
//     first and the shrinking k-th-best distance τ is carried from one
//     to the next through index.KNNBound, so a tight neighbor found in
//     an early shard prunes the later ones. The walk is
//     deterministic — reproducible distance counts for the paper's
//     cost metric.
//
// Every shard observes distances through one shared metric.Counter, so
// DistanceCount stays the paper's single cost ledger for the whole
// logical index.
package shard

import (
	"fmt"
	"math"
	"slices"

	"mvptree/internal/build"
	"mvptree/internal/cascade"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
)

// Assignment selects how items are partitioned across shards. Every
// strategy is a deterministic function of (items, shards, seed) —
// independent of worker count — so a sharded build is reproducible.
type Assignment int

const (
	// Shells cuts the items into S shells around one seeded pivot item:
	// shard g holds the ranks [lo, hi) of GroupBounds(n, S, g) under
	// (distance to the pivot, position), so each shard is a coherent
	// region, the paper's ball-and-shell partition one level above the
	// trees. The index keeps the pivot and each shard's [min, max]
	// distance to it; an exact query pays one distance to the pivot and
	// skips a shard its annulus cannot meet. It costs n distance
	// computations, spread over the build worker pool, and is the zero
	// value.
	Shells Assignment = iota
	// RoundRobin deals items[i] to shard i mod S. With i.i.d. data the
	// shards are statistically interchangeable, every shard covers the
	// whole space, and assignment costs no distance computations.
	RoundRobin
	// Balanced orders items by distance to the pivot Shells draws and
	// deals consecutive ranks round-robin, so every shard receives the
	// same distance profile (near, mid and far items alike). It costs n
	// distance computations, spread over the build worker pool, and
	// protects fan-out latency from a shard that happens to collect all
	// the dense clumps.
	Balanced
)

func (a Assignment) String() string {
	switch a {
	case Shells:
		return "shells"
	case RoundRobin:
		return "roundrobin"
	case Balanced:
		return "balanced"
	default:
		return fmt.Sprintf("assignment(%d)", int(a))
	}
}

// Assignments lists every valid Assignment, in declaration order. It is
// the single source of truth for name parsing and for table tests.
var Assignments = []Assignment{Shells, RoundRobin, Balanced}

// ParseAssignment maps an Assignment's String form back to the value.
// Unknown names are an error — the persistence manifest goes through
// this, so a typo or a future strategy name is rejected loudly instead
// of silently degrading to RoundRobin.
func ParseAssignment(s string) (Assignment, error) {
	for _, a := range Assignments {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown assignment %q", s)
}

// Options configure a sharded build.
type Options struct {
	// Shards is the shard count S. The default (<= 0) is 1.
	Shards int
	// Assignment selects the partitioning strategy.
	Assignment Assignment
	// Workers bounds the goroutines the whole build may use, shared
	// between concurrent shard builds (each shard build receives an
	// equal slice of the budget). Values <= 1 build serially. The built
	// shards are identical at every worker count.
	Workers int
	// Seed drives the pivot choice of Shells and Balanced and is mixed
	// into each shard's backend seed so sibling shards do not repeat
	// vantage choices.
	Seed uint64
}

func (o Options) shards() int {
	if o.Shards <= 0 {
		return 1
	}
	return o.Shards
}

// Index is the partitioned logical index. It implements
// index.BatchSearcher, so everything that serves a single tree — the
// batch executor, the experiment harness, telemetry — serves a sharded
// index unchanged.
//
// The embedded obs.Hooks observe logical queries (one span per Search,
// carrying the merged cross-shard stats).
type Index[T any] struct {
	obs.Hooks

	shards []*mvp.Tree[T]
	// shells[i] is shard i's [min, max] distance to pivot; nil when the
	// index has none (RoundRobin, Balanced), and then every shard is
	// [0, +Inf] and a query pays no pivot distance.
	shells []shell
	pivot  T
	dist   *metric.Counter[T]
	size   int
	opts   Options
}

// shell is the closed interval of distances to the pivot a shard's items
// lie in.
type shell struct{ lo, hi float64 }

// BuildStats extends the uniform construction report with the sharded
// layer's own numbers.
type BuildStats struct {
	build.Stats
	// AssignDistances is the portion of Stats.Distances spent by the
	// assignment phase (zero for RoundRobin).
	AssignDistances int64
	// ShardSizes is the item count per shard.
	ShardSizes []int
	// ShardBuilds is each shard's own construction report.
	ShardBuilds []build.Stats
}

// New builds a sharded index over items through the backend be.
func New[T any](items []T, dist *metric.Counter[T], be Backend[T], opts Options) (*Index[T], error) {
	x, _, err := NewWithStats(items, dist, be, opts)
	return x, err
}

// NewWithStats is New plus the construction report.
func NewWithStats[T any](items []T, dist *metric.Counter[T], be Backend[T], opts Options) (*Index[T], BuildStats, error) {
	var bs BuildStats
	s := opts.shards()
	if s > len(items) && len(items) > 0 {
		s = len(items)
	}
	b := build.Start(dist, build.Options{Workers: opts.Workers, Seed: opts.Seed})
	a, err := assign(items, s, b, opts.Assignment, opts.Seed)
	if err != nil {
		b.Finish()
		return nil, bs, err
	}
	parts := a.parts

	// Build shards concurrently on the same bounded pool the
	// assignment used; each shard build gets an equal slice of the
	// worker budget for its own internal parallelism.
	per := b.Workers() / s
	if per < 1 {
		per = 1
	}
	shards := make([]*mvp.Tree[T], s)
	stats := make([]build.Stats, s)
	errs := make([]error, s)
	b.Fork(s, func(i int) {
		o := be.opts
		o.Build.Workers = per
		o.Build.Seed = opts.Seed + uint64(i)*0x9e3779b97f4a7c15
		shards[i], stats[i], errs[i] = mvp.NewWithStats(parts[i], dist, o)
	})
	bs.Stats = b.Finish()
	for i, err := range errs {
		if err != nil {
			return nil, BuildStats{}, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	bs.AssignDistances = a.cost
	bs.ShardBuilds = stats
	bs.ShardSizes = make([]int, s)
	total := 0
	for i, p := range parts {
		bs.ShardSizes[i] = len(p)
		total += len(p)
	}
	for _, st := range stats {
		bs.SelectionDistances += st.SelectionDistances
		bs.Nodes += st.Nodes
		if st.MaxDepth > bs.MaxDepth {
			bs.MaxDepth = st.MaxDepth
		}
	}
	x := &Index[T]{shards: shards, shells: a.shells, pivot: a.pivot, dist: dist, size: total, opts: opts}
	x.opts.Shards = s
	return x, bs, nil
}

// assignment is what assign makes of the items: the shards' items, the
// shells and their pivot (none but for Shells), and the distance
// computations spent.
type assignment[T any] struct {
	parts  [][]T
	shells []shell
	pivot  T
	cost   int64
}

// assign partitions items into s buckets by strategy a. Shells and
// Balanced draw one pivot item with a seeded draw and measure every item
// against it on b's pool, counted once; the keys they rank are ordered by
// (distance, position), so both partitions are deterministic.
func assign[T any](items []T, s int, b *build.Builder[T], a Assignment, seed uint64) (assignment[T], error) {
	var out assignment[T]
	if a != Shells && a != RoundRobin && a != Balanced {
		return out, fmt.Errorf("shard: unknown assignment %d", int(a))
	}
	n := len(items)
	out.parts = make([][]T, s)
	if n == 0 {
		return out, nil
	}
	if a == RoundRobin {
		for i := range out.parts {
			out.parts[i] = make([]T, 0, (n+s-1)/s)
		}
		for i, it := range items {
			out.parts[i%s] = append(out.parts[i%s], it)
		}
		return out, nil
	}
	rng := build.NewRNG(seed, 0x5ca1ab1e).Rand()
	out.pivot = items[rng.IntN(n)]
	out.cost = int64(n)
	ids, keys := make([]int32, n), make([]build.Key, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	b.MeasureKeys(out.pivot, items, ids, make([]float64, n), keys)
	if a == Balanced {
		// Deal the ranks round-robin.
		build.SortKeys(keys)
		for i := range out.parts {
			out.parts[i] = make([]T, 0, (n+s-1)/s)
		}
		for rank, k := range keys {
			out.parts[rank%s] = append(out.parts[rank%s], items[k.ID])
		}
		return out, nil
	}
	// Shells: select the S rank groups, note each group's interval and
	// each item's group (in ids, whose identity MeasureKeys has read),
	// and deal the items in one pass in their order.
	build.SplitEqual(keys, make([]float64, s-1))
	out.shells = make([]shell, s)
	finite := true
	for g := range out.parts {
		lo, hi := build.GroupBounds(n, s, g)
		out.parts[g] = make([]T, 0, hi-lo)
		sh := shell{math.Inf(1), math.Inf(-1)}
		for _, k := range keys[lo:hi] {
			ids[k.ID] = int32(g)
			sh.lo, sh.hi = min(sh.lo, k.D), max(sh.hi, k.D)
			finite = finite && !math.IsNaN(k.D) && !math.IsInf(k.D, 0)
		}
		out.shells[g] = sh
	}
	for i, it := range items {
		out.parts[ids[i]] = append(out.parts[ids[i]], it)
	}
	if !finite {
		// A distance no rank places, or an unbounded one, bounds
		// nothing: the shards stay as cut, probed as without shells.
		out.shells, out.pivot = nil, *new(T)
	}
	return out, nil
}

// Shards reports the shard count.
func (x *Index[T]) Shards() int { return len(x.shards) }

// Shard returns shard i's tree, for inspection and tests.
func (x *Index[T]) Shard(i int) *mvp.Tree[T] { return x.shards[i] }

// Len reports the total number of indexed items.
func (x *Index[T]) Len() int { return x.size }

// DistanceCount reports the shared counter: every distance computation
// made by any shard, build and queries alike.
func (x *Index[T]) DistanceCount() int64 { return x.dist.Count() }

// EnableCascade arms the bound cascade (internal/mvp) on every shard:
// each shard selects its own pivots and precomputes their distance
// columns through the shared counter, and thereafter every query pays
// its pivot distances on each shard it visits, up front, to skip leaf
// candidates by the triangle inequality. Results are byte-identical with
// the cascade on or off; a query computes at most Pivots distances more
// per shard. Like the per-structure method, it is not synchronized with
// in-flight queries — enable before serving — and the cascade is not
// serialized by SaveDir: re-enable after LoadDir.
func (x *Index[T]) EnableCascade(opts cascade.Options) error {
	for i, s := range x.shards {
		if err := s.EnableCascade(opts); err != nil {
			return fmt.Errorf("shard %d: enable cascade: %w", i, err)
		}
	}
	return nil
}

// EnableQuantize arms the quantized lower-bound pre-filter
// (internal/quant) on every shard: each shard encodes its own leaf
// vectors into a companion arena consulted before the exact kernel.
// Results, counter deltas and every stat but FilteredByQuantized (the
// skips, summed over the shards like the rest) are byte-identical with
// the filter on or off, shard by shard; shards whose metric has no quantized
// shape are left unfiltered silently, exactly as the per-structure
// method behaves. Not synchronized with in-flight queries — arm before
// serving — and the arenas are not serialized by SaveDir: re-enable
// after LoadDir.
func (x *Index[T]) EnableQuantize(mode quant.Mode) error {
	for i, s := range x.shards {
		if err := s.EnableQuantize(mode); err != nil {
			return fmt.Errorf("shard %d: enable quantize: %w", i, err)
		}
	}
	return nil
}

// Clone returns an index that answers as x does, over clones of x's
// shards (mvp.Tree.Clone): Own on the copy leaves x as it is, so a
// server may pack a copy beside queries on x and then swap it in.
func (x *Index[T]) Clone() *Index[T] {
	c := &Index[T]{Hooks: x.Hooks, shards: make([]*mvp.Tree[T], len(x.shards)), shells: x.shells, pivot: x.pivot, dist: x.dist, size: x.size, opts: x.opts}
	for i, s := range x.shards {
		c.shards[i] = s.Clone()
	}
	return c
}

// Own packs every shard's points into a block the shard owns
// (mvp.Tree.Own), one shard after the other on the calling goroutine, and
// copies the shells' pivot into a slice of its own; it reports whether it
// packed every shard: a shard of words, or of vectors the rule keeps
// plain, is left as it is. Afterwards the index refers to none of the
// vectors it was built over, so a caller that keeps none of them lets
// them go, and the vectors a query returns alias the shards' blocks. Like
// the per-structure method it is not synchronized with in-flight queries:
// call it before serving.
func (x *Index[T]) Own() bool {
	packed := true
	for _, s := range x.shards {
		packed = s.Own() && packed
	}
	if p, ok := any(x.pivot).([]float64); ok && p != nil {
		x.pivot = any(slices.Clone(p)).(T)
	}
	return packed
}

var _ index.BatchSearcher[int] = (*Index[int])(nil)
