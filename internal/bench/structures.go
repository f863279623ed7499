package bench

import (
	"fmt"

	"mvptree/internal/balltree"
	"mvptree/internal/bktree"
	"mvptree/internal/build"
	"mvptree/internal/gmvp"
	"mvptree/internal/gnat"
	"mvptree/internal/index"
	"mvptree/internal/laesa"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/vptree"
)

// The constructors below adapt each index package to the harness and fix
// the naming convention the paper uses in its figures: vpt(m),
// mvpt(m,k).

// VPT returns a vp-tree structure of the given order, named vpt(m) as in
// the paper's figures.
func VPT[T any](order int) Structure[T] {
	return Structure[T]{
		Name: fmt.Sprintf("vpt(%d)", order),
		Build: func(items []T, dist *metric.Counter[T], opts build.Options) (index.Searcher[T], build.Stats, error) {
			return vptree.NewWithStats(items, dist, vptree.Options{Build: opts, Order: order})
		},
	}
}

// MVPT returns an mvp-tree structure with m partitions per vantage
// point, leaf capacity k and path length p, named mvpt(m,k) as in the
// paper's figures (the paper suppresses p in the name since it is
// constant per figure). It is the paper's tree: the first vantage point
// of every node is drawn at random, as in the paper's implementation
// and in vpt, its random-draw comparator, so the figures stay the
// paper's; MVPTSpreadSV1 is the tree the library builds by default.
func MVPT[T any](m, k, p int) Structure[T] {
	return mvpt[T](fmt.Sprintf("mvpt(%d,%d)", m, k),
		mvp.Options{Partitions: m, LeafCapacity: k, PathLength: p, RandomFirstVantage: true})
}

// MVPTSpreadSV1 is MVPT with the first vantage point of every internal
// node chosen by sampled spread, mvp's default — the abl-sv1 ablation.
func MVPTSpreadSV1[T any](m, k, p int) Structure[T] {
	return mvpt[T](fmt.Sprintf("mvpt(%d,%d)-spr1", m, k),
		mvp.Options{Partitions: m, LeafCapacity: k, PathLength: p})
}

// MVPTRandomSV2 is MVPT with the second vantage point chosen randomly
// from the outermost shell instead of farthest-first — the abl-sv2
// ablation.
func MVPTRandomSV2[T any](m, k, p int) Structure[T] {
	return mvpt[T](fmt.Sprintf("mvpt(%d,%d)-rnd2", m, k),
		mvp.Options{Partitions: m, LeafCapacity: k, PathLength: p, RandomFirstVantage: true, RandomSecondVantage: true})
}

func mvpt[T any](name string, o mvp.Options) Structure[T] {
	return Structure[T]{
		Name: name,
		Build: func(items []T, dist *metric.Counter[T], opts build.Options) (index.Searcher[T], build.Stats, error) {
			o := o // builds of one structure run concurrently
			o.Build = opts
			return mvp.NewWithStats(items, dist, o)
		},
	}
}

// GNAT returns a GNAT structure with the given degree.
func GNAT[T any](degree int) Structure[T] {
	return Structure[T]{
		Name: fmt.Sprintf("gnat(%d)", degree),
		Build: func(items []T, dist *metric.Counter[T], opts build.Options) (index.Searcher[T], build.Stats, error) {
			return gnat.NewWithStats(items, dist, gnat.Options{Build: opts, Degree: degree})
		},
	}
}

// LAESA returns a pivot-table structure with the given pivot count.
func LAESA[T any](pivots int) Structure[T] {
	return Structure[T]{
		Name: fmt.Sprintf("laesa(%d)", pivots),
		Build: func(items []T, dist *metric.Counter[T], opts build.Options) (index.Searcher[T], build.Stats, error) {
			return laesa.NewWithStats(items, dist, laesa.Options{Build: opts, Pivots: pivots})
		},
	}
}

// BKT returns a BK-tree structure (discrete metrics only).
func BKT[T any]() Structure[T] {
	return Structure[T]{
		Name: "bkt",
		Build: func(items []T, dist *metric.Counter[T], opts build.Options) (index.Searcher[T], build.Stats, error) {
			return bktree.NewWithStats(items, dist, bktree.Options{Build: opts})
		},
	}
}

// Linear returns the brute-force baseline.
func Linear[T any]() Structure[T] {
	return Structure[T]{
		Name: "linear",
		Build: func(items []T, dist *metric.Counter[T], opts build.Options) (index.Searcher[T], build.Stats, error) {
			return linear.New(items, dist), build.Stats{}, nil
		},
	}
}

// GMVPT returns a generalized mvp-tree with v vantage points per node,
// named gmvpt(v,m,k).
func GMVPT[T any](v, m, k, p int) Structure[T] {
	return Structure[T]{
		Name: fmt.Sprintf("gmvpt(%d,%d,%d)", v, m, k),
		Build: func(items []T, dist *metric.Counter[T], opts build.Options) (index.Searcher[T], build.Stats, error) {
			return gmvp.NewWithStats(items, dist, gmvp.Options{
				Build: opts, Vantages: v, Partitions: m, LeafCapacity: k, PathLength: p,
			})
		},
	}
}

// BallTree returns the center/radius multi-way tree of [BK73]'s second
// method, named ball(fanout).
func BallTree[T any](fanout int) Structure[T] {
	return Structure[T]{
		Name: fmt.Sprintf("ball(%d)", fanout),
		Build: func(items []T, dist *metric.Counter[T], opts build.Options) (index.Searcher[T], build.Stats, error) {
			return balltree.NewWithStats(items, dist, balltree.Options{Build: opts, Fanout: fanout})
		},
	}
}
