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
// Experiments: fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 claims
// ablation-p ablation-k ablation-sv2 ablation-v knn structures words
// build approx filters telemetry querybench shardbench cascadebench
// approxbench all.
//
// -obsjson FILE writes the telemetry experiment's per-structure
// observer snapshots (latency and distance-count histograms, filter
// counters) as a JSON artifact; -queryjson FILE writes the querybench
// experiment's per-structure serving costs (ns/op, distances/query,
// allocs/op); -shardjson FILE writes the shardbench experiment's
// sharded-serving scaling report (-shards and -queryworkers set its
// sweeps); -cascadejson FILE writes the cascadebench experiment's
// cascade-off vs cascade-on distance-count deltas; -approxjson FILE
// writes the approxbench experiment's recall-vs-distance-cost curves;
// -quantjson FILE writes the quantbench experiment's quantized
// pre-filter wall-time and survivor-rate report;
// -cpuprofile/-memprofile write pprof profiles of the run.
package main

import (
	"encoding/json"
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
		experiment   = fs.String("experiment", "all", "experiment id (see package comment) or 'all'")
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
		buildJSON    = fs.String("buildjson", "", "write the build experiment's per-structure stats as JSON to this file (adds the build experiment if not selected)")
		obsJSON      = fs.String("obsjson", "", "write the telemetry experiment's per-structure observer snapshots as JSON to this file (adds the telemetry experiment if not selected)")
		queryJSON    = fs.String("queryjson", "", "write the querybench experiment's per-structure serving costs (ns/op, distances/query, allocs/op) as JSON to this file (adds the querybench experiment if not selected)")
		shards       = fs.String("shards", "", "comma-separated shard counts for the shardbench experiment (default 1,2,4,8)")
		queryWorkers = fs.String("queryworkers", "", "comma-separated intra-query fan-out worker counts for the shardbench experiment (default 1,2,4,8)")
		shardJSON    = fs.String("shardjson", "", "write the shardbench experiment's scaling report as JSON to this file (adds the shardbench experiment if not selected)")
		cascadeJSON  = fs.String("cascadejson", "", "write the cascadebench experiment's distance-count report as JSON to this file (adds the cascadebench experiment if not selected)")
		approxJSON   = fs.String("approxjson", "", "write the approxbench experiment's recall-vs-cost report as JSON to this file (adds the approxbench experiment if not selected)")
		quantJSON    = fs.String("quantjson", "", "write the quantbench experiment's quantized pre-filter wall-time report as JSON to this file (adds the quantbench experiment if not selected)")
		batchJSON    = fs.String("batchjson", "", "write the batchbench experiment's shared-traversal batching report as JSON to this file (adds the batchbench experiment if not selected)")
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
	if *shards != "" {
		list, err := parseIntList(*shards)
		if err != nil {
			return fmt.Errorf("-shards: %w", err)
		}
		cfg.ShardCounts = list
	}
	if *queryWorkers != "" {
		list, err := parseIntList(*queryWorkers)
		if err != nil {
			return fmt.Errorf("-queryworkers: %w", err)
		}
		cfg.ShardQueryWorkers = list
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

	ids := strings.Split(*experiment, ",")
	if *experiment == "all" {
		ids = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
			"claims", "ablation-p", "ablation-k", "ablation-sv2", "ablation-v",
			"knn", "structures", "words", "build", "approx", "filters", "telemetry", "querybench", "shardbench", "cascadebench", "approxbench", "quantbench", "batchbench"}
	}
	if *buildJSON != "" && !containsID(ids, "build") {
		ids = append(ids, "build")
	}
	if *obsJSON != "" && !containsID(ids, "telemetry") {
		ids = append(ids, "telemetry")
	}
	if *queryJSON != "" && !containsID(ids, "querybench") {
		ids = append(ids, "querybench")
	}
	if *shardJSON != "" && !containsID(ids, "shardbench") {
		ids = append(ids, "shardbench")
	}
	if *cascadeJSON != "" && !containsID(ids, "cascadebench") {
		ids = append(ids, "cascadebench")
	}
	if *approxJSON != "" && !containsID(ids, "approxbench") {
		ids = append(ids, "approxbench")
	}
	if *quantJSON != "" && !containsID(ids, "quantbench") {
		ids = append(ids, "quantbench")
	}
	if *batchJSON != "" && !containsID(ids, "batchbench") {
		ids = append(ids, "batchbench")
	}
	for _, id := range ids {
		if err := runOne(out, strings.TrimSpace(id), cfg, *csv, *buildJSON, *obsJSON, *queryJSON, *shardJSON, *cascadeJSON, *approxJSON, *quantJSON, *batchJSON); err != nil {
			return err
		}
	}
	return nil
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil || v < 1 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func containsID(ids []string, want string) bool {
	for _, id := range ids {
		if strings.TrimSpace(id) == want {
			return true
		}
	}
	return false
}

// buildArtifact is the JSON document -buildjson writes: the per-structure
// construction stats of the build experiment plus the run configuration
// needed to interpret them.
type buildArtifact struct {
	N            int                 `json:"n"`
	Dim          int                 `json:"dim"`
	Seeds        int                 `json:"seeds"`
	BuildWorkers int                 `json:"build_workers"`
	Structures   []bench.BuildReport `json:"structures"`
}

func writeBuildJSON(path string, cfg experiments.Config, tbl *bench.Table) error {
	bw := cfg.BuildWorkers
	if bw < 1 {
		bw = 1
	}
	art := buildArtifact{
		N:            cfg.N,
		Dim:          cfg.Dim,
		Seeds:        len(cfg.TreeSeeds),
		BuildWorkers: bw,
		Structures:   tbl.BuildReports(),
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeObsJSON(path string, rep *experiments.TelemetryReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeQueryJSON(path string, rep *experiments.QueryBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeShardJSON(path string, rep *experiments.ShardBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeCascadeJSON(path string, rep *experiments.CascadeBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeApproxJSON(path string, rep *experiments.ApproxBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeQuantJSON(path string, rep *experiments.QuantBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeBatchJSON(path string, rep *experiments.BatchBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runOne(out io.Writer, id string, cfg experiments.Config, csv bool, buildJSON, obsJSON, queryJSON, shardJSON, cascadeJSON, approxJSON, quantJSON, batchJSON string) error {
	start := time.Now()
	if !csv {
		fmt.Fprintf(out, "== %s ==\n", describe(id))
	}
	pt := func(t *bench.Table, err error) error { return printTable(out, t, err, csv) }
	var err error
	switch id {
	case "fig4":
		err = printHistogram(out, experiments.Fig4(cfg), csv)
	case "fig5":
		err = printHistogram(out, experiments.Fig5(cfg), csv)
	case "fig6":
		err = printHistogram(out, experiments.Fig6(cfg), csv)
	case "fig7":
		err = printHistogram(out, experiments.Fig7(cfg), csv)
	case "fig8":
		err = pt(experiments.Fig8(cfg))
	case "fig9":
		err = pt(experiments.Fig9(cfg))
	case "fig10":
		err = pt(experiments.Fig10(cfg))
	case "fig11":
		err = pt(experiments.Fig11(cfg))
	case "claims":
		var claims []experiments.Claim
		claims, err = experiments.Claims(cfg)
		if err == nil {
			err = experiments.WriteClaims(out, claims)
		}
	case "ablation-p":
		err = pt(experiments.AblationP(cfg))
	case "ablation-k":
		err = pt(experiments.AblationK(cfg))
	case "ablation-sv2":
		err = pt(experiments.AblationSV2(cfg))
	case "ablation-v":
		err = pt(experiments.VantageStudy(cfg))
	case "knn":
		err = pt(experiments.KNNStudy(cfg))
	case "structures":
		err = pt(experiments.StructureStudy(cfg))
	case "words":
		err = pt(experiments.WordStudy(cfg))
	case "filters":
		var rows []experiments.FilterRow
		rows, err = experiments.FilterStudy(cfg)
		if err == nil {
			err = experiments.WriteFilterRows(out, rows)
		}
	case "approx":
		var results []experiments.ApproxResult
		results, err = experiments.ApproxStudy(cfg)
		if err == nil {
			err = experiments.WriteApproxResults(out, results)
		}
	case "build":
		var tbl *bench.Table
		tbl, err = experiments.BuildStudy(cfg)
		if err == nil {
			_, err = tbl.WriteBuildCosts(out)
		}
		if err == nil && buildJSON != "" {
			err = writeBuildJSON(buildJSON, cfg, tbl)
		}
	case "telemetry":
		var rep *experiments.TelemetryReport
		rep, err = experiments.TelemetryStudy(cfg)
		if err == nil {
			err = experiments.WriteTelemetry(out, rep)
		}
		if err == nil && obsJSON != "" {
			err = writeObsJSON(obsJSON, rep)
		}
	case "querybench":
		var rep *experiments.QueryBenchReport
		rep, err = experiments.QueryBenchStudy(cfg)
		if err == nil {
			err = experiments.WriteQueryBench(out, rep)
		}
		if err == nil && queryJSON != "" {
			err = writeQueryJSON(queryJSON, rep)
		}
	case "shardbench":
		var rep *experiments.ShardBenchReport
		rep, err = experiments.ShardBenchStudy(cfg)
		if err == nil {
			err = experiments.WriteShardBench(out, rep)
		}
		if err == nil && shardJSON != "" {
			err = writeShardJSON(shardJSON, rep)
		}
	case "cascadebench":
		var rep *experiments.CascadeBenchReport
		rep, err = experiments.CascadeBenchStudy(cfg)
		if err == nil {
			err = experiments.WriteCascadeBench(out, rep)
		}
		if err == nil && cascadeJSON != "" {
			err = writeCascadeJSON(cascadeJSON, rep)
		}
	case "approxbench":
		var rep *experiments.ApproxBenchReport
		rep, err = experiments.ApproxBenchStudy(cfg)
		if err == nil {
			err = experiments.WriteApproxBench(out, rep)
		}
		if err == nil && approxJSON != "" {
			err = writeApproxJSON(approxJSON, rep)
		}
	case "quantbench":
		var rep *experiments.QuantBenchReport
		rep, err = experiments.QuantBenchStudy(cfg)
		if err == nil {
			err = experiments.WriteQuantBench(out, rep)
		}
		if err == nil && quantJSON != "" {
			err = writeQuantJSON(quantJSON, rep)
		}
	case "batchbench":
		var rep *experiments.BatchBenchReport
		rep, err = experiments.BatchBenchStudy(cfg)
		if err == nil {
			err = experiments.WriteBatchBench(out, rep)
		}
		if err == nil && batchJSON != "" {
			err = writeBatchJSON(batchJSON, rep)
		}
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	if !csv {
		fmt.Fprintf(out, "# %s completed in %v\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func describe(id string) string {
	descriptions := map[string]string{
		"fig4":         "Figure 4: distance distribution, uniform 20-d vectors (L2)",
		"fig5":         "Figure 5: distance distribution, clustered 20-d vectors (L2)",
		"fig6":         "Figure 6: distance distribution, gray images (normalized L1)",
		"fig7":         "Figure 7: distance distribution, gray images (normalized L2)",
		"fig8":         "Figure 8: distance computations per search, uniform vectors",
		"fig9":         "Figure 9: distance computations per search, clustered vectors",
		"fig10":        "Figure 10: distance computations per search, images (L1)",
		"fig11":        "Figure 11: distance computations per search, images (L2)",
		"claims":       "headline claims: mvp-tree savings over the best vp-tree",
		"ablation-p":   "ablation: retained PATH length p (Observation 2)",
		"ablation-k":   "ablation: leaf capacity k ('keep k large', §4.2)",
		"ablation-sv2": "ablation: farthest vs random second vantage point (§4.2)",
		"ablation-v":   "ablation: vantage points per node at fixed fanout (§4.2 remark)",
		"knn":          "extension: k-nearest-neighbor cost across structures",
		"structures":   "extension: §3.2 structures (gh-tree, GNAT, LAESA) vs vpt/mvpt",
		"words":        "extension: [BK73] word search under edit distance",
		"build":        "extension: construction cost across structures",
		"approx":       "extension: anytime kNN — recall vs distance-computation budget",
		"filters":      "extension: leaf-filter breakdown (Observations 1 & 2 measured)",
		"telemetry":    "extension: per-structure query telemetry (observer snapshots)",
		"querybench":   "extension: serving hot-path cost (ns/op, distances, allocs per query)",
		"shardbench":   "extension: sharded serving scaling (shards × intra-query workers)",
		"cascadebench": "extension: cross-query bound cascade, distance counts off vs on",
		"approxbench":  "extension: approximate & budgeted kNN — recall vs distance cost across dimensions",
		"quantbench":   "extension: quantized lower-bound pre-filter — wall time off vs sq8",
		"batchbench":   "extension: shared-traversal batch execution — wall time per query vs batch size",
	}
	if d, ok := descriptions[id]; ok {
		return d
	}
	return id
}

func printHistogram(out io.Writer, h *histogram.Histogram, csv bool) error {
	if csv {
		_, err := h.WriteCSV(out)
		return err
	}
	_, err := h.WriteTo(out)
	return err
}

func printTable(out io.Writer, t *bench.Table, err error, csv bool) error {
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
