// Package cascade is what the bound cascade of the mvp-tree core
// (internal/mvp, so the vp-tree and the sharded index over them) and the
// laesa table (internal/laesa) share: the options a structure arms it
// with and the LAESA pivot selection both build their columns from. The
// comparison structures of the paper's figures use neither (DESIGN.md
// "Two tiers").
//
// The idea, following the Cascading Metric Tree (arXiv 2112.10900) and
// the pivot tables of the LAESA family, is the paper's Observation 2 taken
// tree-wide: any point p with a precomputed distance to every stored item
// turns one paid distance d(q, p) into a filter over all of them, since by
// the triangle inequality
//
//	max_p |d(q,p) − d(p,x)| ≤ d(q,x)
//
// for every stored item x, and a candidate whose bound already exceeds
// the query radius (or the current k-th best distance) is excluded
// without an exact distance computation — the paper's cost metric. A
// small set of pivots far from one another bounds well everywhere;
// GreedySelect chooses it, and a query pays its distance to each pivot
// once, up front. How the columns are stored and compared is the
// structure's own business: the tree keeps 16-bit codes beside its leaf
// rows (internal/mvp/cascade.go), the table float64 rows.
package cascade

import (
	"errors"

	"mvptree/internal/build"
)

// DefaultPivots is the default number of pivots per structure — the
// number of precomputed distance columns.
const DefaultPivots = 16

// Options configure a structure's cascade (EnableCascade).
type Options struct {
	// Pivots is how many pivots the structure selects from its stored
	// items, capped at their number. Selecting them costs Pivots × n
	// distance computations — the columns themselves — every query pays
	// Pivots more, and every stored item keeps one code per pivot. Default
	// DefaultPivots.
	Pivots int
	// Workers bounds the goroutines used to precompute the columns
	// (values <= 1 compute serially; the columns are identical either way).
	Workers int
}

// Resolve returns o with zero fields defaulted, or an error if a field
// is out of range.
func (o Options) Resolve() (Options, error) {
	if o.Pivots == 0 {
		o.Pivots = DefaultPivots
	}
	if o.Pivots < 1 {
		return o, errors.New("cascade: Pivots must be at least 1")
	}
	if o.Workers < 0 {
		return o, errors.New("cascade: Workers must be non-negative")
	}
	return o, nil
}

// GreedySelect is the LAESA pivot selection: starting from items[start],
// repeatedly take the item with the maximum distance to its nearest
// already-chosen pivot. Each pivot costs one batched distance pass over
// all items through b — which doubles as the pivot's column, so selection
// and precomputation share every distance computation. It returns the
// chosen pivot items and their rows: rows[j][i] = d(pivots[j], items[i]).
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
