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

// ApproxResult is one point of the recall-versus-budget curve for the
// budgeted (anytime) k-nearest-neighbor search.
type ApproxResult struct {
	// Budget is the hard cap on distance computations per query.
	Budget int64
	// Recall is the fraction of true k-nearest neighbors returned,
	// averaged over queries and seeds.
	Recall float64
	// ExactFraction is the fraction of queries whose traversal
	// finished within budget (result provably exact).
	ExactFraction float64
}

// ApproxKs is the neighbor count used by ApproxStudy.
const ApproxK = 10

// ApproxBudgets are the per-query distance-computation caps swept by
// ApproxStudy, as fractions of the dataset size.
var ApproxBudgetFractions = []float64{0.002, 0.01, 0.05, 0.2, 1.0}

// ApproxStudy measures the anytime behaviour of mvp-tree kNN on the
// uniform vector workload, where exact kNN approaches a linear scan
// (ext-knn): how much recall does a fixed distance-computation budget
// buy? Ground truth comes from a linear scan per query.
func ApproxStudy(c Config) ([]ApproxResult, error) {
	items := c.UniformVectors()
	queries := c.VectorQueries()
	results := make([]ApproxResult, len(ApproxBudgetFractions))
	for i, f := range ApproxBudgetFractions {
		// At least one computation: Budget 0 means unlimited to Search.
		results[i].Budget = max(1, int64(f*float64(len(items))))
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
			want := map[int]bool{}
			for _, nb := range truth.KNN(q, ApproxK) {
				want[vectorKey(nb.Item)] = true
			}
			for i := range results {
				res := tree.Search(index.Query[[]float64]{Point: q, K: ApproxK,
					Opts: index.SearchOptions{Budget: results[i].Budget}})
				hits := 0
				for _, nb := range res.Neighbors {
					if want[vectorKey(nb.Item)] {
						hits++
					}
				}
				results[i].Recall += float64(hits)
				if !res.Exhausted() {
					results[i].ExactFraction++
				}
			}
		}
	}
	norm := float64(len(c.TreeSeeds) * len(queries))
	for i := range results {
		results[i].Recall /= norm * ApproxK
		results[i].ExactFraction /= norm
	}
	return results, nil
}

// vectorKey identifies a vector by its first coordinates' bit patterns —
// sufficient to match items within one dataset (uniform random vectors
// collide with negligible probability).
func vectorKey(v []float64) int {
	h := 0
	for i := 0; i < len(v) && i < 4; i++ {
		h = h*1000003 + int(v[i]*1e9)
	}
	return h
}

// WriteApproxResults prints the recall curve.
func WriteApproxResults(w io.Writer, results []ApproxResult) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %10s %10s\n", "budget", "recall", "exact")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-12d %9.1f%% %9.1f%%\n", r.Budget, 100*r.Recall, 100*r.ExactFraction)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
