// Package cascade is the composable cross-query bound cascade: the
// pivot lower-bound machinery of the LAESA table (internal/laesa)
// extracted into a filter layer an index structure can consult. Two
// do: the mvp-tree core (internal/mvp, so the vp-tree and the sharded
// index over them), which enables it on request, and the laesa table,
// which is built on it. The comparison structures of the paper's figures
// do not (DESIGN.md "Two tiers").
//
// The idea, following the Cascading Metric Tree (arXiv 2112.10900), is
// that a query should waste none of the distances it pays for. Every
// tree traversal computes distances from the query q to vantage points
// and uses each one once — for the local
// routing decision — and then drops it. But any point p with a
// precomputed distance row d(p, ·) over the stored items turns that one
// paid distance into a global filter: by the triangle inequality,
//
//	max_p |d(q,p) − d(p,x)| ≤ d(q,x)
//
// for every stored item x, so a candidate whose bound already exceeds
// the query radius (or the current k-th best distance) is excluded
// without an exact distance computation — the paper's cost metric.
//
// The layer has three parts:
//
//   - Filter, the per-structure immutable state: the chosen pivot items
//     and their distance rows over the stored items, built once when a
//     structure enables cascading (Builder) or directly from an existing
//     table (NewFilter, how laesa reuses the core).
//
//   - Cache, the per-query scratch: the distances d(q, p) the traversal
//     has registered so far. Caches are pooled on the Filter (Get/Put),
//     so steady-state queries allocate nothing — the same discipline as
//     the qpath scratch pooling of the query hot paths.
//
//   - LowerBound, the consult: max over registered pivots of
//     |d(q,p) − row_p[x]|, O(registered) per candidate.
//
// Exactness: registration only stores distances the traversal computes
// anyway (sites that used a bounded kernel switch to the exact kernel
// when registering — an exact distance is a valid bounded kernel, so
// every routing decision is unchanged and the distance count is not).
// The consult only ever *skips* candidates whose true distance provably
// exceeds the current threshold, so result sets are byte-identical to
// the uncascaded query and per-query distance counts never increase.
package cascade

import (
	"errors"
	"fmt"
	"sync"

	"mvptree/internal/build"
	"mvptree/internal/metric"
)

// Default option values; see Options.
const (
	// DefaultPivots is the default cap on registered pivot points per
	// structure — the number of precomputed distance rows.
	DefaultPivots = 16
	// DefaultMaxPerQuery is the default cap on pivots one query
	// registers. Each registered pivot adds one |qd − row| comparison
	// per surviving candidate, so an unbounded cache could spend more on
	// bound checks than it saves in distance computations on easy
	// workloads; eight pivots keeps the consult a handful of cache-local
	// float compares while capturing the high-value early (near-root)
	// vantage points, which every query path evaluates anyway.
	DefaultMaxPerQuery = 8
)

// Options configure a structure's cascade filter (EnableCascade).
type Options struct {
	// Pivots caps how many vantage/pivot/center points the structure
	// precomputes distance rows for; rows cost one distance pass over
	// the stored items each, so the precomputation is Pivots × n.
	// Default DefaultPivots.
	Pivots int
	// MaxPerQuery caps how many pivot distances a single query
	// registers; see DefaultMaxPerQuery for the tradeoff. It is further
	// capped at the number of pivots actually collected.
	MaxPerQuery int
	// Workers bounds the goroutines used to precompute the pivot rows
	// (values <= 1 compute serially; the rows are identical either way).
	Workers int
}

// withDefaults returns o with zero fields defaulted.
func (o Options) withDefaults() Options {
	if o.Pivots == 0 {
		o.Pivots = DefaultPivots
	}
	if o.MaxPerQuery == 0 {
		o.MaxPerQuery = DefaultMaxPerQuery
	}
	return o
}

// Validate checks the options after defaulting.
func (o Options) Validate() error {
	if o.Pivots < 1 {
		return errors.New("cascade: Pivots must be at least 1")
	}
	if o.MaxPerQuery < 1 {
		return errors.New("cascade: MaxPerQuery must be at least 1")
	}
	if o.Workers < 0 {
		return errors.New("cascade: Workers must be non-negative")
	}
	return nil
}

// Filter is the immutable cascade state of one structure: pivot items,
// their precomputed distance rows over the stored items, and a pool of
// per-query Caches. A Filter is safe for concurrent queries once built.
type Filter[T any] struct {
	pivots []T
	rows   [][]float64 // rows[j][id] = d(pivots[j], item id)
	maxPer int
	built  int64 // distance computations spent on rows
	pool   sync.Pool
}

// NewFilter wraps an existing pivot table — pivot items plus their
// distance rows over the stored items — as a Filter, without computing
// anything. This is how laesa rebuilds on the shared core: its greedy
// selection already produced exactly these rows. maxPerQuery values
// <= 0 or beyond len(pivots) mean every pivot registers.
func NewFilter[T any](pivots []T, rows [][]float64, maxPerQuery int) (*Filter[T], error) {
	if len(pivots) != len(rows) {
		return nil, fmt.Errorf("cascade: %d pivots but %d rows", len(pivots), len(rows))
	}
	for j, row := range rows {
		if len(row) != len(rows[0]) {
			return nil, fmt.Errorf("cascade: row %d has %d entries, row 0 has %d", j, len(row), len(rows[0]))
		}
	}
	if maxPerQuery <= 0 || maxPerQuery > len(pivots) {
		maxPerQuery = len(pivots)
	}
	return &Filter[T]{pivots: pivots, rows: rows, maxPer: maxPerQuery}, nil
}

// Pivots reports the number of pivot rows.
func (f *Filter[T]) Pivots() int { return len(f.pivots) }

// Pivot returns the j-th pivot item.
func (f *Filter[T]) Pivot(j int) T { return f.pivots[j] }

// MaxPerQuery reports the per-query registration cap in effect.
func (f *Filter[T]) MaxPerQuery() int { return f.maxPer }

// BuildDistances reports the distance computations spent precomputing
// the rows (zero for NewFilter-wrapped tables, whose rows were already
// paid for by the caller's own build).
func (f *Filter[T]) BuildDistances() int64 { return f.built }

// Get returns a pooled, empty per-query Cache. Callers must Put it back
// when the query finishes; steady state allocates nothing.
func (f *Filter[T]) Get() *Cache {
	if c, ok := f.pool.Get().(*Cache); ok {
		return c
	}
	return &Cache{
		pivot: make([]int32, 0, f.maxPer),
		qd:    make([]float64, 0, f.maxPer),
		limit: f.maxPer,
	}
}

// Put resets c and returns it to the pool.
func (f *Filter[T]) Put(c *Cache) {
	if c == nil {
		return
	}
	c.pivot = c.pivot[:0]
	c.qd = c.qd[:0]
	f.pool.Put(c)
}

// LowerBound returns max over the registered pivots of
// |d(q,pivot) − rows[pivot][id]| — by the triangle inequality a lower
// bound on the distance from the query behind c to stored item id. With
// nothing registered it returns 0 (vacuous bound).
func (f *Filter[T]) LowerBound(c *Cache, id int32) float64 {
	var lb float64
	for k, j := range c.pivot {
		d := c.qd[k] - f.rows[j][id]
		if d < 0 {
			d = -d
		}
		if d > lb {
			lb = d
		}
	}
	return lb
}

// Cache is the per-query registered-distance scratch. It is owned by
// one query at a time (obtain with Filter.Get, return with Filter.Put)
// and is not safe for concurrent use.
type Cache struct {
	pivot []int32
	qd    []float64
	limit int
}

// Wants reports whether the cache still accepts registrations — query
// paths use it to decide whether a stamped vantage evaluation should
// compute exactly (and register) or stay on the bounded kernel.
func (c *Cache) Wants() bool { return len(c.pivot) < c.limit }

// Register records d = d(q, pivot j). d must be the exact distance
// (registering an early-abandoned value would produce invalid bounds).
// Registrations beyond the per-query cap are dropped.
func (c *Cache) Register(j int32, d float64) {
	if len(c.pivot) >= c.limit {
		return
	}
	c.pivot = append(c.pivot, j)
	c.qd = append(c.qd, d)
}

// Registered reports how many pivot distances the query has registered.
func (c *Cache) Registered() int { return len(c.pivot) }

// Builder accumulates a structure's pivots and stored items during the
// post-build tree walk of EnableCascade, then precomputes the rows.
// The walk calls AddPivot for each vantage/split/center in visit order
// (breadth-first from the root, so the pivots every query evaluates
// first get rows) and AddItems for the leaf-stored items, whose
// returned ids the structure stamps onto its nodes.
type Builder[T any] struct {
	opts   Options
	pivots []T
	items  []T
}

// NewBuilder returns a Builder for the given (defaulted, validated)
// options.
func NewBuilder[T any](opts Options) (*Builder[T], error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Builder[T]{opts: opts}, nil
}

// AddPivot registers p as a pivot and returns its node stamp: the pivot
// index plus one, so that the zero value of a stamp field means "not a
// cascade pivot". Beyond the Pivots cap it returns 0.
func (b *Builder[T]) AddPivot(p T) int32 {
	if len(b.pivots) >= b.opts.Pivots {
		return 0
	}
	b.pivots = append(b.pivots, p)
	return int32(len(b.pivots))
}

// AddItems appends a leaf's items to the stored-item space and returns
// the id of the first: leaf item i has cascade id base+i.
func (b *Builder[T]) AddItems(items []T) int32 {
	base := int32(len(b.items))
	b.items = append(b.items, items...)
	return base
}

// NumPivots reports how many pivots the walk has collected so far.
func (b *Builder[T]) NumPivots() int { return len(b.pivots) }

// NumItems reports how many stored items the walk has collected so far.
func (b *Builder[T]) NumItems() int { return len(b.items) }

// Build precomputes the pivot × item distance rows through dist (the
// structure's own counter, so the precomputation shows up in the
// paper's cost metric as build cost) and returns the Filter. Returns an
// error if the walk registered no pivots or no items — cascading such a
// structure would be a silent no-op, which the caller should know.
func (b *Builder[T]) Build(dist *metric.Counter[T]) (*Filter[T], error) {
	if len(b.pivots) == 0 || len(b.items) == 0 {
		return nil, errors.New("cascade: structure yielded no pivots or no stored items")
	}
	bb := build.Start(dist, build.Options{Workers: b.opts.Workers})
	rows := make([][]float64, len(b.pivots))
	for j, pv := range b.pivots {
		row := make([]float64, len(b.items))
		bb.Measure(pv, func(i int) T { return b.items[i] }, row)
		rows[j] = row
	}
	st := bb.Finish()
	f, err := NewFilter(b.pivots, rows, min(b.opts.MaxPerQuery, len(b.pivots)))
	if err != nil {
		return nil, err
	}
	f.built = st.Distances
	return f, nil
}

// GreedySelect is the LAESA pivot selection the laesa package builds
// with: starting from items[start], repeatedly take the item with the
// maximum distance to its nearest already-chosen pivot. Each pivot
// costs one batched distance pass over all items through b — which
// doubles as the pivot's table row, so selection and table construction
// share every distance computation. It returns the chosen pivot items
// and their rows, ready for NewFilter.
func GreedySelect[T any](b *build.Builder[T], items []T, p, start int) (pivots []T, rows [][]float64) {
	pivots = make([]T, 0, p)
	rows = make([][]float64, 0, p)
	minDist := make([]float64, len(items)) // to nearest chosen pivot
	cur := start
	for j := 0; j < p; j++ {
		pv := items[cur]
		pivots = append(pivots, pv)
		b.Node(j)
		row := make([]float64, len(items))
		b.Measure(pv, func(i int) T { return items[i] }, row)
		far, farD := cur, -1.0
		for i := range items {
			if j == 0 || row[i] < minDist[i] {
				minDist[i] = row[i]
			}
			if minDist[i] > farD {
				far, farD = i, minDist[i]
			}
		}
		rows = append(rows, row)
		cur = far
	}
	return pivots, rows
}
