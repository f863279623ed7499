// Package shard is the partitioned serving layer: one logical index
// made of S independent per-shard index structures (mvp-trees by
// default) over a disjoint partition of the item set. Sharding buys
// three things the single-tree layout cannot offer at once:
//
//   - parallel construction with coarser grain than internal/build's
//     intra-tree forking — shards build concurrently, each with its own
//     worker budget;
//
//   - fan-out query serving: one range query visits every shard, with
//     a deterministic merge (results are exactly the concatenation of
//     per-shard answers in ascending shard order); queries run beside
//     each other through the batch executor, not shards;
//
//   - cross-shard kNN bound sharing: shards are searched in ascending
//     id order and the shrinking k-th-best distance τ is carried from
//     one to the next through index.KNNBound, so a tight neighbor
//     found in an early shard prunes the later ones. The walk is
//     deterministic — reproducible distance counts for the paper's
//     cost metric.
//
// Every shard observes distances through one shared metric.Counter, so
// DistanceCount stays the paper's single cost ledger for the whole
// logical index.
package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"mvptree/internal/build"
	"mvptree/internal/cascade"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/obs"
	"mvptree/internal/quant"
)

// Assignment selects how items are partitioned across shards. Both
// strategies are deterministic functions of (items, shards, seed) —
// independent of worker count — so a sharded build is reproducible.
type Assignment int

const (
	// RoundRobin deals items[i] to shard i mod S. With i.i.d. data the
	// shards are statistically interchangeable, and assignment costs no
	// distance computations.
	RoundRobin Assignment = iota
	// Balanced orders items by distance to a seeded reference pivot and
	// deals consecutive ranks round-robin, so every shard receives the
	// same distance profile (near, mid and far items alike). It costs n
	// distance computations, spread over the build worker pool, and
	// protects fan-out latency from a shard that happens to collect all
	// the dense clumps.
	Balanced
)

func (a Assignment) String() string {
	switch a {
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
var Assignments = []Assignment{RoundRobin, Balanced}

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
	// Seed drives the Balanced pivot choice and is mixed into each
	// shard's backend seed so sibling shards do not repeat vantage
	// choices.
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
	dist   *metric.Counter[T]
	size   int
	opts   Options
}

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
	parts, assignCost, err := assign(items, s, dist, b, opts)
	if err != nil {
		b.Finish()
		return nil, bs, err
	}

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
	bs.AssignDistances = assignCost
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
	x := &Index[T]{shards: shards, dist: dist, size: total, opts: opts}
	x.opts.Shards = s
	return x, bs, nil
}

// assign partitions items into s buckets and reports the distance
// computations the strategy spent.
func assign[T any](items []T, s int, dist *metric.Counter[T], b *build.Builder[T], opts Options) ([][]T, int64, error) {
	parts := make([][]T, s)
	if len(items) == 0 {
		return parts, 0, nil
	}
	for i := range parts {
		parts[i] = make([]T, 0, (len(items)+s-1)/s)
	}
	switch opts.Assignment {
	case RoundRobin:
		for i, it := range items {
			parts[i%s] = append(parts[i%s], it)
		}
		return parts, 0, nil
	case Balanced:
		// Distance-balanced dealing: rank every item by distance to a
		// seeded pivot (measured on the shared pool, counted once) and
		// deal ranks round-robin. Ties rank by original position, so
		// the partition is deterministic.
		rng := build.NewRNG(opts.Seed, 0x5ca1ab1e).Rand()
		pivot := items[rng.IntN(len(items))]
		d := make([]float64, len(items))
		b.Measure(pivot, func(i int) T { return items[i] }, d)
		order := make([]int, len(items))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(i, j int) int {
			return cmp.Or(cmp.Compare(d[i], d[j]), cmp.Compare(i, j))
		})
		for rank, i := range order {
			parts[rank%s] = append(parts[rank%s], items[i])
		}
		return parts, int64(len(items)), nil
	default:
		return nil, 0, fmt.Errorf("shard: unknown assignment %d", int(opts.Assignment))
	}
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
	c := &Index[T]{Hooks: x.Hooks, shards: make([]*mvp.Tree[T], len(x.shards)), dist: x.dist, size: x.size, opts: x.opts}
	for i, s := range x.shards {
		c.shards[i] = s.Clone()
	}
	return c
}

// Own packs every shard's points into a block the shard owns
// (mvp.Tree.Own), the shards on a goroutine each, and reports whether it
// packed them all: a shard of words, or of vectors the rule keeps plain,
// is left as it is. Afterwards the index refers to none of the vectors it
// was built over, so a caller that keeps none of them lets them go, and
// the vectors a query returns alias the shards' blocks. Like the
// per-structure method it is not synchronized with in-flight queries:
// call it before serving.
func (x *Index[T]) Own() bool {
	packed := make([]bool, len(x.shards))
	var wg sync.WaitGroup
	for i, s := range x.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			packed[i] = s.Own()
		}()
	}
	wg.Wait()
	return !slices.Contains(packed, false)
}

var _ index.BatchSearcher[int] = (*Index[int])(nil)
