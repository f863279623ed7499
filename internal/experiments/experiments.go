// Package experiments defines every experiment of the paper's evaluation
// (and this repository's extensions) as a parameterized, reproducible
// function: the figures 4–11, the headline claims table, the ablations
// and the extension studies listed in DESIGN.md. cmd/mvpbench and the
// root benchmark suite both drive these definitions, so the figure a
// benchmark regenerates and the figure the CLI prints are the same code.
package experiments

import (
	"math"
	"math/rand/v2"

	"mvptree/internal/bench"
	"mvptree/internal/dataset"
	"mvptree/internal/histogram"
	"mvptree/internal/metric"
	"mvptree/internal/pgm"
)

// Config scales an experiment. DefaultConfig reproduces the paper's
// sizes; QuickConfig is a laptop-friendly reduction that preserves every
// qualitative shape.
type Config struct {
	// Vector workloads (§5.1.A).
	N           int     // dataset size (paper: 50,000)
	Dim         int     // dimensionality (paper: 20)
	Queries     int     // queries per run (paper: 100)
	ClusterSize int     // clustered workload cluster size (paper: 1,000)
	Epsilon     float64 // clustered workload perturbation (paper: 0.15)

	// Image workloads (§5.1.B).
	ImageCount    int // paper: 1,151
	ImageDim      int // square image side (paper: 256; default 64, see DESIGN.md)
	ImageSubjects int // distinct synthetic "people"
	ImageQueries  int // queries per run (paper: 30)

	// Histogram sampling for the 50,000-vector figures (the full pair
	// set is 1.25 billion).
	HistPairs int

	// Seeds: DataSeed generates workloads; TreeSeeds are the
	// construction seeds averaged over (paper: 4 runs).
	DataSeed  uint64
	TreeSeeds []uint64

	// QueryWorkers parallelizes query evaluation within each
	// (structure, seed) run (cmd/mvpbench -workers). Values <= 1 run
	// queries sequentially. The worker count never changes the
	// measured distance counts — each query's cost is independent —
	// only wall-clock time.
	QueryWorkers int

	// BuildWorkers parallelizes index construction within each
	// (structure, seed) run (cmd/mvpbench -buildworkers). Values <= 1
	// build sequentially. Construction is deterministic in the worker
	// count: the tree built and its distance-computation cost are
	// identical, only wall-clock time changes.
	BuildWorkers int

	// ImageSet, when non-nil, replaces the synthetic image workload —
	// the hook for running the image experiments against a real
	// collection (cmd/mvpbench -imgdir). ImageDim must be set to the
	// images' side length so distance normalization stays correct.
	ImageSet []*pgm.Image
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		N: 50000, Dim: 20, Queries: 100,
		ClusterSize: 1000, Epsilon: 0.15,
		ImageCount: 1151, ImageDim: 64, ImageSubjects: 12, ImageQueries: 30,
		HistPairs: 2_000_000,
		DataSeed:  1997, TreeSeeds: bench.DefaultSeeds,
	}
}

// QuickConfig returns a reduced configuration for fast runs; every
// qualitative result still holds at this scale.
func QuickConfig() Config {
	return Config{
		N: 5000, Dim: 20, Queries: 30,
		ClusterSize: 100, Epsilon: 0.15,
		ImageCount: 200, ImageDim: 32, ImageSubjects: 8, ImageQueries: 10,
		HistPairs: 200_000,
		DataSeed:  1997, TreeSeeds: []uint64{101, 202},
	}
}

// UniformVectors generates the Figure 4/8 dataset for the configuration.
func (c *Config) UniformVectors() [][]float64 {
	rng := rand.New(rand.NewPCG(c.DataSeed, 1))
	return dataset.UniformVectors(rng, c.N, c.Dim)
}

// ClusteredVectors generates the Figure 5/9 dataset.
func (c *Config) ClusteredVectors() [][]float64 {
	rng := rand.New(rand.NewPCG(c.DataSeed, 2))
	return dataset.ClusteredVectors(rng, c.N, c.Dim, c.ClusterSize, c.Epsilon)
}

// VectorQueries generates the hypercube query batch for the vector
// experiments.
func (c *Config) VectorQueries() [][]float64 {
	rng := rand.New(rand.NewPCG(c.DataSeed, 3))
	return dataset.UniformQueries(rng, c.Queries, c.Dim)
}

// Images returns the Figure 6/7/10/11 image dataset: ImageSet if
// provided, the synthetic phantom collection otherwise.
func (c *Config) Images() []*pgm.Image {
	if c.ImageSet != nil {
		return c.ImageSet
	}
	rng := rand.New(rand.NewPCG(c.DataSeed, 4))
	return dataset.SyntheticImages(rng, c.ImageCount, dataset.ImageOptions{
		Width: c.ImageDim, Height: c.ImageDim, Subjects: c.ImageSubjects,
	})
}

// ImageQuerySet samples query images from the dataset, as the paper does.
func (c *Config) ImageQuerySet(imgs []*pgm.Image) []*pgm.Image {
	rng := rand.New(rand.NewPCG(c.DataSeed, 5))
	return dataset.SampleQueries(rng, imgs, c.ImageQueries)
}

// The paper normalizes raw image distances so that interesting query
// radii are small integers: L1 by 10,000 and L2 by 100, for
// 256×256 = 65,536-pixel images. For other image sizes the
// normalization keeps the same meaning by scaling with the pixel count
// (L1 grows linearly in pixels, L2 with the square root).

// ImageL1 returns the normalized L1 image metric for the configured
// image size.
func (c *Config) ImageL1() metric.DistanceFunc[*pgm.Image] {
	pixels := float64(c.ImageDim * c.ImageDim)
	return metric.Scaled(pgm.L1, 65536.0/(10000.0*pixels))
}

// ImageL2 returns the normalized L2 image metric for the configured
// image size.
func (c *Config) ImageL2() metric.DistanceFunc[*pgm.Image] {
	pixels := float64(c.ImageDim * c.ImageDim)
	return metric.Scaled(pgm.L2, math.Sqrt(65536.0/pixels)/100.0)
}

// Sweeps used by the paper's figures.
var (
	// Fig8Radii are the query ranges of Figure 8 (uniform vectors).
	Fig8Radii = []float64{0.15, 0.2, 0.3, 0.4, 0.5}
	// Fig9Radii are the query ranges of Figure 9 (clustered vectors;
	// the paper sweeps 0.2 to 1.0).
	Fig9Radii = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	// ImageRadii are the query ranges of Figures 10 and 11 (normalized
	// image distances).
	ImageRadii = []float64{10, 20, 30, 40, 50, 60, 80}
)

// VectorStructures returns the four structures of Figures 8 and 9:
// vpt(2), vpt(3), mvpt(3,9) and mvpt(3,80), all with p = 5.
func VectorStructures() []bench.Structure[[]float64] {
	return []bench.Structure[[]float64]{
		bench.VPT[[]float64](2),
		bench.VPT[[]float64](3),
		bench.MVPT[[]float64](3, 9, 5),
		bench.MVPT[[]float64](3, 80, 5),
	}
}

// ImageStructures returns the five structures of Figures 10 and 11:
// vpt(2), vpt(3), mvpt(2,16), mvpt(2,5) and mvpt(3,13), all with p = 4.
func ImageStructures() []bench.Structure[*pgm.Image] {
	return []bench.Structure[*pgm.Image]{
		bench.VPT[*pgm.Image](2),
		bench.VPT[*pgm.Image](3),
		bench.MVPT[*pgm.Image](2, 16, 4),
		bench.MVPT[*pgm.Image](2, 5, 4),
		bench.MVPT[*pgm.Image](3, 13, 4),
	}
}

// Fig4 regenerates Figure 4: the pairwise-distance histogram of the
// uniform vector dataset (bucket width 0.01, sampled pairs).
func Fig4(c Config) *histogram.Histogram {
	rng := rand.New(rand.NewPCG(c.DataSeed, 6))
	return histogram.PairwiseSampled(rng, c.UniformVectors(), metric.L2, 0.01, c.HistPairs)
}

// Fig5 regenerates Figure 5: the clustered-vector distance histogram.
func Fig5(c Config) *histogram.Histogram {
	rng := rand.New(rand.NewPCG(c.DataSeed, 7))
	return histogram.PairwiseSampled(rng, c.ClusteredVectors(), metric.L2, 0.01, c.HistPairs)
}

// Fig6 regenerates Figure 6: the all-pairs image distance histogram
// under normalized L1 (bucket width 1).
func Fig6(c Config) *histogram.Histogram {
	return histogram.Pairwise(c.Images(), c.ImageL1(), 1)
}

// Fig7 regenerates Figure 7: the image distance histogram under
// normalized L2.
func Fig7(c Config) *histogram.Histogram {
	return histogram.Pairwise(c.Images(), c.ImageL2(), 1)
}

// Fig8 regenerates Figure 8: distance computations per search on the
// uniform vector dataset for vpt(2), vpt(3), mvpt(3,9), mvpt(3,80).
func Fig8(c Config) (*bench.Table, error) {
	return bench.RunRange(c.UniformVectors(), c.VectorQueries(), metric.L2,
		VectorStructures(), Fig8Radii, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}

// Fig9 regenerates Figure 9: the same four structures on the clustered
// vector dataset.
func Fig9(c Config) (*bench.Table, error) {
	return bench.RunRange(c.ClusteredVectors(), c.VectorQueries(), metric.L2,
		VectorStructures(), Fig9Radii, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}

// Fig10 regenerates Figure 10: image similarity search under L1.
func Fig10(c Config) (*bench.Table, error) {
	imgs := c.Images()
	return bench.RunRange(imgs, c.ImageQuerySet(imgs), c.ImageL1(),
		ImageStructures(), ImageRadii, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}

// Fig11 regenerates Figure 11: image similarity search under L2.
func Fig11(c Config) (*bench.Table, error) {
	imgs := c.Images()
	return bench.RunRange(imgs, c.ImageQuerySet(imgs), c.ImageL2(),
		ImageStructures(), ImageRadii, c.TreeSeeds, c.QueryWorkers, c.BuildWorkers)
}
