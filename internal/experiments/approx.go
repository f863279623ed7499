package experiments

import (
	"fmt"
	"io"
	"strings"

	"mvptree/internal/index"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// ApproxResult is one point of the recall-versus-distances plane for
// k-nearest-neighbor search at k = ApproxK: a distance budget, an ε, or
// the honest competitor of both, the exact query at a smaller k′.
// Exactly one of Budget and Epsilon is set on an approximate row;
// neither is on an exact one.
type ApproxResult struct {
	// Budget is the hard cap on distance computations per query.
	Budget int64
	// Epsilon is the (1+ε) prune slack.
	Epsilon float64
	// K is the neighbor count asked: ApproxK on the approximate rows,
	// k′ on the exact ones.
	K int
	// Distances is the mean distance computations per query;
	// MaxDistances the most any one query made.
	Distances    float64
	MaxDistances int64
	// Recall is the fraction of the true ApproxK nearest neighbors
	// returned, by distance (a returned neighbor counts when it is no
	// farther than the true ApproxK-th), averaged over queries and
	// seeds. An exact k′ row's recall is k′/ApproxK.
	Recall float64
}

// ApproxK is the neighbor count used by ApproxStudy.
const ApproxK = 10

// ApproxBudgetFractions are the per-query distance-computation caps
// swept by ApproxStudy, as fractions of the dataset size.
var ApproxBudgetFractions = []float64{0.002, 0.01, 0.05, 0.2, 1.0}

// ApproxEpsilons are the (1+ε) slacks swept by ApproxStudy.
var ApproxEpsilons = []float64{0.25, 0.5, 1, 2}

// ApproxStudy measures what the approximate kNN modes buy on the
// uniform vector workload, where exact kNN approaches a linear scan
// (ext-knn): recall against distances for each distance budget and each
// ε, beside the exact query at k′ = 1 … ApproxK−1, which reaches recall
// k′/ApproxK. A mode earns its place where it gets more recall for its
// distances than the exact curve. Ground truth comes from a linear scan
// per query.
func ApproxStudy(c Config) ([]ApproxResult, error) {
	items := c.UniformVectors()
	queries := c.VectorQueries()
	var results []ApproxResult
	for _, f := range ApproxBudgetFractions {
		// At least one computation: Budget 0 means unlimited to Search.
		results = append(results, ApproxResult{Budget: max(1, int64(f*float64(len(items)))), K: ApproxK})
	}
	for _, eps := range ApproxEpsilons {
		results = append(results, ApproxResult{Epsilon: eps, K: ApproxK})
	}
	for k := 1; k < ApproxK; k++ {
		results = append(results, ApproxResult{K: k})
	}

	truth := linear.New(items, metric.NewCounter[[]float64](metric.L2))
	for _, seed := range c.TreeSeeds {
		counter := metric.NewCounter[[]float64](metric.L2)
		tree, err := mvp.New(items, counter, mvp.Options{
			Partitions: 3, LeafCapacity: 80, PathLength: 5, RandomFirstVantage: true, // the paper's tree, as bench.MVPT
			Build: mvp.Build{Seed: seed, Workers: c.BuildWorkers},
		})
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			want := truth.KNN(q, ApproxK)
			tau := want[len(want)-1].Dist
			for i := range results {
				r := &results[i]
				res := tree.Search(index.Query[[]float64]{Point: q, K: r.K,
					Opts: index.SearchOptions{Epsilon: r.Epsilon, Budget: r.Budget}})
				for _, nb := range res.Neighbors {
					if nb.Dist <= tau {
						r.Recall++
					}
				}
				d := res.Stats.Distances()
				r.Distances += float64(d)
				r.MaxDistances = max(r.MaxDistances, d)
			}
		}
	}
	norm := float64(len(c.TreeSeeds) * len(queries))
	for i := range results {
		results[i].Recall /= norm * ApproxK
		results[i].Distances /= norm
	}
	return results, nil
}

// WriteApproxResults prints the recall table, one row per mode setting.
func WriteApproxResults(w io.Writer, results []ApproxResult) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %8s %12s %10s %8s\n", "mode", "setting", "dists/query", "max", "recall")
	for _, r := range results {
		mode, setting := "exact", fmt.Sprintf("k'=%d", r.K)
		switch {
		case r.Budget > 0:
			mode, setting = "budget", fmt.Sprint(r.Budget)
		case r.Epsilon > 0:
			mode, setting = "epsilon", fmt.Sprint(r.Epsilon)
		}
		fmt.Fprintf(&sb, "%-8s %8s %12.1f %10d %7.1f%%\n", mode, setting, r.Distances, r.MaxDistances, 100*r.Recall)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
