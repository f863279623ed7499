// Command mvpbench regenerates every table and figure of the paper's
// evaluation (Figures 4–11), the headline claims, and this repository's
// ablation and extension studies. Output is textual: histograms as
// "bucket count" rows, search experiments as one row per query range
// with one column per structure (average number of distance computations
// per query, the paper's cost measure).
//
// Usage:
//
//	mvpbench -experiment fig8            # paper scale (50,000 vectors)
//	mvpbench -experiment all -quick      # everything, reduced scale
//	mvpbench -experiment fig10 -imgdim 256 -imgcount 1151
//
// -experiment takes an id of the experiments table below, a comma list
// of ids, or "all"; an unknown id fails with the list of valid ones.
// -csv emits tables and histograms as CSV; -cpuprofile/-memprofile
// write pprof profiles of the run. Serving costs (wall time, batching,
// sharding, cascade, quantization) are measured by the benchmark ledger
// instead: bash benchmark/run.sh (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mvptree/internal/bench"
	"mvptree/internal/dataset"
	"mvptree/internal/experiments"
	"mvptree/internal/histogram"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvpbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("mvpbench", flag.ContinueOnError)
	var (
		experiment   = fs.String("experiment", "all", "experiment id, comma list of ids, or 'all': "+strings.Join(experimentIDs(), " "))
		quick        = fs.Bool("quick", false, "reduced scale: 5,000 vectors, 200 images")
		n            = fs.Int("n", 0, "override vector dataset size")
		dim          = fs.Int("dim", 0, "override vector dimensionality")
		queries      = fs.Int("queries", 0, "override query count per run")
		seeds        = fs.Int("seeds", 0, "override number of construction seeds")
		imgCount     = fs.Int("imgcount", 0, "override image dataset size")
		imgDim       = fs.Int("imgdim", 0, "override image side length")
		imgDir       = fs.String("imgdir", "", "directory of PGM images to use instead of the synthetic collection")
		pairs        = fs.Int("pairs", 0, "override sampled pairs for fig4/fig5")
		dataSeed     = fs.Uint64("dataseed", 0, "override workload generation seed")
		workers      = fs.Int("workers", 1, "query-evaluation goroutines per run (distance counts are identical for any value)")
		buildWorkers = fs.Int("buildworkers", 1, "construction goroutines per index build (the index built, and its distance count, are identical for any value)")
		cpuProfile   = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProfile   = fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
		csv          = fs.Bool("csv", false, "emit tables and histograms as CSV")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mvpbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mvpbench: memprofile:", err)
			}
		}()
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *n > 0 {
		cfg.N = *n
	}
	if *dim > 0 {
		cfg.Dim = *dim
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *seeds > 0 {
		cfg.TreeSeeds = cfg.TreeSeeds[:0]
		for i := 0; i < *seeds; i++ {
			cfg.TreeSeeds = append(cfg.TreeSeeds, uint64(101*(i+1)))
		}
	}
	if *imgCount > 0 {
		cfg.ImageCount = *imgCount
	}
	if *imgDim > 0 {
		cfg.ImageDim = *imgDim
	}
	if *pairs > 0 {
		cfg.HistPairs = *pairs
	}
	if *dataSeed > 0 {
		cfg.DataSeed = *dataSeed
	}
	if *workers > 1 {
		cfg.QueryWorkers = *workers
	}
	if *buildWorkers > 1 {
		cfg.BuildWorkers = *buildWorkers
	}
	if *imgDir != "" {
		imgs, err := dataset.LoadPGMDir(*imgDir)
		if err != nil {
			return err
		}
		cfg.ImageSet = imgs
		cfg.ImageCount = len(imgs)
		cfg.ImageDim = imgs[0].Width
		fmt.Fprintf(out, "# using %d images of %dx%d from %s\n", len(imgs), imgs[0].Width, imgs[0].Height, *imgDir)
	}

	selected := table
	if *experiment != "all" {
		selected = nil
		for _, id := range strings.Split(*experiment, ",") {
			e, err := lookup(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		start := time.Now()
		if !*csv {
			fmt.Fprintf(out, "== %s ==\n", e.desc)
		}
		if err := e.run(out, cfg, *csv); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if !*csv {
			fmt.Fprintf(out, "# %s completed in %v\n\n", e.id, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// experiment is one entry of the experiments table: adding an
// experiment is adding one entry. run prints the result to out, as CSV
// when csv is set and the result has a CSV form.
type experiment struct {
	id, desc string
	run      runFunc
}

type runFunc func(out io.Writer, cfg experiments.Config, csv bool) error

// table is the one list of experiments: "all", lookup, the heading
// each run prints, the -experiment usage text and the tests range over
// it.
var table = []experiment{
	{"fig4", "Figure 4: distance distribution, uniform 20-d vectors (L2)", hist(experiments.Fig4)},
	{"fig5", "Figure 5: distance distribution, clustered 20-d vectors (L2)", hist(experiments.Fig5)},
	{"fig6", "Figure 6: distance distribution, gray images (normalized L1)", hist(experiments.Fig6)},
	{"fig7", "Figure 7: distance distribution, gray images (normalized L2)", hist(experiments.Fig7)},
	{"fig8", "Figure 8: distance computations per search, uniform vectors", costs(experiments.Fig8)},
	{"fig9", "Figure 9: distance computations per search, clustered vectors", costs(experiments.Fig9)},
	{"fig10", "Figure 10: distance computations per search, images (L1)", costs(experiments.Fig10)},
	{"fig11", "Figure 11: distance computations per search, images (L2)", costs(experiments.Fig11)},
	{"claims", "headline claims: mvp-tree savings over the best vp-tree", study(experiments.Claims, experiments.WriteClaims)},
	{"ablation-p", "ablation: retained PATH length p (Observation 2)", costs(experiments.AblationP)},
	{"ablation-k", "ablation: leaf capacity k ('keep k large', §4.2)", costs(experiments.AblationK)},
	{"ablation-sv1", "ablation: spread-selected vs drawn first vantage point ([Yia93] applied to §4.2)", study(experiments.AblationSV1, experiments.WriteAblationSV1)},
	{"ablation-sv2", "ablation: farthest vs random second vantage point (§4.2)", costs(experiments.AblationSV2)},
	{"ablation-v", "ablation: vantage points per node at fixed fanout (§4.2 remark)", costs(experiments.VantageStudy)},
	{"knn", "extension: k-nearest-neighbor cost across structures", costs(experiments.KNNStudy)},
	{"structures", "extension: §3.2 structures (gh-tree, GNAT, LAESA) vs vpt/mvpt", costs(experiments.StructureStudy)},
	{"words", "extension: [BK73] word search under edit distance", costs(experiments.WordStudy)},
	{"build", "extension: construction cost across structures", study(experiments.BuildStudy, writeBuildCosts)},
	{"approx", "extension: approximate kNN — recall vs distances for budget, ε and exact k'", study(experiments.ApproxStudy, experiments.WriteApproxResults)},
	{"filters", "extension: leaf-filter breakdown (Observations 1 & 2 measured)", study(experiments.FilterStudy, experiments.WriteFilterRows)},
	{"telemetry", "extension: per-structure query telemetry (observer snapshots)", study(experiments.TelemetryStudy, experiments.WriteTelemetry)},
}

func experimentIDs() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}

// lookup finds an experiment by id; the error names the valid ids.
func lookup(id string) (experiment, error) {
	for _, e := range table {
		if e.id == id {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("unknown experiment %q (valid: %s, all)", id, strings.Join(experimentIDs(), " "))
}

// hist adapts a distance-histogram figure to the table.
func hist(f func(experiments.Config) *histogram.Histogram) runFunc {
	return func(out io.Writer, cfg experiments.Config, csv bool) error {
		h := f(cfg)
		if csv {
			_, err := h.WriteCSV(out)
			return err
		}
		_, err := h.WriteTo(out)
		return err
	}
}

// costs adapts a distance-computations-per-query sweep to the table.
func costs(f func(experiments.Config) (*bench.Table, error)) runFunc {
	return func(out io.Writer, cfg experiments.Config, csv bool) error {
		t, err := f(cfg)
		if err != nil {
			return err
		}
		if csv {
			_, err := t.WriteCSV(out)
			return err
		}
		if _, err := t.WriteTo(out); err != nil {
			return err
		}
		fmt.Fprintln(out, "# average result-set sizes (all structures must agree):")
		_, err = t.WriteResultCounts(out)
		return err
	}
}

// study adapts an experiment with its own text report (no CSV form) to
// the table.
func study[R any](f func(experiments.Config) (R, error), write func(io.Writer, R) error) runFunc {
	return func(out io.Writer, cfg experiments.Config, _ bool) error {
		r, err := f(cfg)
		if err != nil {
			return err
		}
		return write(out, r)
	}
}

func writeBuildCosts(out io.Writer, t *bench.Table) error {
	_, err := t.WriteBuildCosts(out)
	return err
}
