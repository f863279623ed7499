package experiments

import (
	"fmt"
	"io"

	"mvptree/internal/bench"
	"mvptree/internal/build"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// The experiments below go beyond the paper's figures: ablations of the
// mvp-tree's design choices (DESIGN.md rows abl-p, abl-k, abl-sv1, abl-sv2) and
// extension studies (kNN, the related structures of §3.2, and the
// BK-tree word workload).

// AblationPValues are the retained-path lengths swept by AblationP.
var AblationPValues = []int{0, 2, 5, 8, 12}

// AblationP quantifies Observation 2 (the pre-computed PATH distances):
// the same mvpt(3,80) tree with increasing p, on the uniform vector
// workload over the Figure 8 radii.
func AblationP(c Config) (*bench.Table, error) {
	var structures []bench.Structure[[]float64]
	for _, p := range AblationPValues {
		p := p
		structures = append(structures, bench.Structure[[]float64]{
			Name: fmt.Sprintf("mvpt-p=%d", p),
			Build: func(items [][]float64, dist *metric.Counter[[]float64], opts build.Options) (index.Searcher[[]float64], build.Stats, error) {
				pl := p
				if pl == 0 {
					pl = -1 // mvp.Options: -1 requests a genuine zero
				}
				return mvp.NewWithStats(items, dist, mvp.Options{
					Build: opts, Partitions: 3, LeafCapacity: 80, PathLength: pl,
					RandomFirstVantage: true, // the paper's tree, as bench.MVPT
				})
			},
		})
	}
	return bench.RunRange(c.UniformVectors(), c.VectorQueries(), metric.L2,
		structures, Fig8Radii, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}

// AblationKValues are the leaf capacities swept by AblationK.
var AblationKValues = []int{5, 9, 20, 40, 80, 160}

// AblationK quantifies the paper's "keep k large" recommendation (§4.2):
// mvpt(3,k) for growing k, uniform vectors, Figure 8 radii.
func AblationK(c Config) (*bench.Table, error) {
	var structures []bench.Structure[[]float64]
	for _, k := range AblationKValues {
		structures = append(structures, bench.MVPT[[]float64](3, k, 5))
	}
	return bench.RunRange(c.UniformVectors(), c.VectorQueries(), metric.L2,
		structures, Fig8Radii, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}

// AblationSV2 quantifies the farthest-point choice of the second vantage
// point (§4.2) against picking it randomly from the outermost shell.
func AblationSV2(c Config) (*bench.Table, error) {
	structures := []bench.Structure[[]float64]{
		bench.MVPT[[]float64](3, 80, 5),
		bench.MVPTRandomSV2[[]float64](3, 80, 5),
	}
	return bench.RunRange(c.UniformVectors(), c.VectorQueries(), metric.L2,
		structures, Fig8Radii, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}

// SV1Result is AblationSV1's table for one workload.
type SV1Result struct {
	Workload string
	Table    *bench.Table
}

// AblationSV1 quantifies the choice of the first vantage point: mvpt(3,80)
// with sv1 drawn at random, as in the paper, against sv1 chosen by
// sampled spread (mvp's default), on the uniform and clustered vectors
// and on the word corpus. Each table carries the build costs, so what
// choosing buys at query time reads beside what it costs.
func AblationSV1(c Config) ([]SV1Result, error) {
	uniform, err := sv1Table(c, c.UniformVectors(), c.VectorQueries(), metric.L2, Fig8Radii)
	if err != nil {
		return nil, err
	}
	clustered, err := sv1Table(c, c.ClusteredVectors(), c.VectorQueries(), metric.L2, Fig9Radii)
	if err != nil {
		return nil, err
	}
	words := c.Words()
	edit, err := sv1Table(c, words, c.WordQueries(words), metric.Edit, WordRadii)
	if err != nil {
		return nil, err
	}
	return []SV1Result{{"uniform", uniform}, {"clustered", clustered}, {"words", edit}}, nil
}

func sv1Table[T any](c Config, items, queries []T, dist metric.DistanceFunc[T], radii []float64) (*bench.Table, error) {
	structures := []bench.Structure[T]{bench.MVPT[T](3, 80, 5), bench.MVPTSpreadSV1[T](3, 80, 5)}
	return bench.RunRange(items, queries, dist, structures, radii, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}

// WriteAblationSV1 prints, per workload, the query costs and the build
// costs of the two trees.
func WriteAblationSV1(w io.Writer, results []SV1Result) error {
	for _, r := range results {
		if _, err := fmt.Fprintf(w, "# %s\n", r.Workload); err != nil {
			return err
		}
		if _, err := r.Table.WriteTo(w); err != nil {
			return err
		}
		if _, err := r.Table.WriteBuildCosts(w); err != nil {
			return err
		}
	}
	return nil
}

// KNNKs are the neighbor counts swept by KNNStudy.
var KNNKs = []int{1, 5, 10}

// KNNStudy compares all tree structures on k-nearest-neighbor queries
// over the uniform vector workload (the paper's "nearest neighbor query"
// variation, §2).
func KNNStudy(c Config) (*bench.Table, error) {
	structures := append(VectorStructures(),
		bench.GNAT[[]float64](8),
		bench.LAESA[[]float64](32),
	)
	return bench.RunKNN(c.UniformVectors(), c.VectorQueries(), metric.L2,
		structures, KNNKs, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}

// WordRadii are the edit-distance query radii swept by WordStudy.
var WordRadii = []float64{1, 2, 3}

// WordStudy runs the [BK73] workload: best-match searching in a word
// file under edit distance, comparing the BK-tree against vp-trees,
// mvp-trees and the linear scan.
func WordStudy(c Config) (*bench.Table, error) {
	words := c.Words()
	queries := c.WordQueries(words)
	structures := []bench.Structure[string]{
		bench.Linear[string](),
		bench.BKT[string](),
		bench.VPT[string](3),
		bench.MVPT[string](2, 20, 4),
	}
	return bench.RunRange(words, queries, metric.Edit, structures, WordRadii, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}

// VantageStudy sweeps the number of vantage points per node at roughly
// constant fanout (the §4.2 "more than 2 vantage points" remark):
// gmvpt(1,9) is an m-way vp-tree with buckets and PATH, gmvpt(2,3) is
// the paper's mvp-tree, gmvpt(3,2) trades thinner binary shells for a
// third shared vantage point.
func VantageStudy(c Config) (*bench.Table, error) {
	structures := []bench.Structure[[]float64]{
		bench.GMVPT[[]float64](1, 9, 80, 5),
		bench.GMVPT[[]float64](2, 3, 80, 5),
		bench.GMVPT[[]float64](3, 2, 80, 5),
		bench.MVPT[[]float64](3, 80, 5), // reference implementation of v=2
	}
	return bench.RunRange(c.UniformVectors(), c.VectorQueries(), metric.L2,
		structures, Fig8Radii, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}

// BuildStudy measures construction cost (distance computations) for
// every structure on the uniform vector workload — the preprocessing
// trade-off the paper discusses when comparing against GNAT ([Bri95]:
// "the preprocessing step of GNAT is more expensive than the vp-tree").
func BuildStudy(c Config) (*bench.Table, error) {
	structures := []bench.Structure[[]float64]{
		bench.VPT[[]float64](2),
		bench.VPT[[]float64](3),
		bench.MVPT[[]float64](3, 9, 5),
		bench.MVPT[[]float64](3, 80, 5),
		bench.GNAT[[]float64](8),
		bench.LAESA[[]float64](32),
	}
	// A single token radius: only the BuildCost column matters here.
	return bench.RunRange(c.UniformVectors(), c.VectorQueries()[:1], metric.L2,
		structures, []float64{0.1}, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}
