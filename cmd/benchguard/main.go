// Command benchguard is the CI benchmark-regression gate. It has two
// modes:
//
//   - -mode query (the default) compares a fresh `mvpbench -queryjson`
//     report against the querybench section of the committed
//     BENCH_query.json baseline and exits nonzero if the mvp-tree's
//     range or kNN serving time regressed by more than the threshold.
//
//   - -mode cascade compares a fresh `mvpbench -cascadejson` report
//     against the cascadebench section of the committed
//     BENCH_cascade.json baseline: for every (structure, workload) row
//     present in both, the cascade-on per-query distance counts must
//     not exceed the baseline by more than the threshold. Distance
//     counts are machine-independent, so unlike the wall-clock query
//     gate this comparison is exact: every cell is bit-reproducible.
//
//   - -mode quant asserts, inside one `mvpbench -quantjson` report (a
//     fresh run or the committed BENCH_quant.json), that the quantized
//     pre-filter actually pays for itself in its target regime: for at
//     least one guarded-structure workload at dim ≥ 20 under l2, the
//     sq8 row must cut range or kNN ns/op by the threshold (default
//     25%) against the mode-off row of the same run. Off and
//     on rows come from the same process and machine, so the
//     comparison needs no cross-machine baseline.
//
//   - -mode batch asserts, inside one `mvpbench -batchjson` report (a
//     fresh run or the committed BENCH_batch.json), that shared-
//     traversal batch execution actually pays: on the guarded
//     structure's range workload (mvpt, l2, 64-query group), the best
//     batched ns/query must beat the sequential batch-size-1 row of
//     the same run by at least the threshold (default 0.20 = batched
//     ≥ 20% faster). Both rows come from the same process and machine,
//     so the comparison needs no cross-machine baseline.
//
//   - -mode approx compares a fresh `mvpbench -approxjson` report
//     against the approxbench section of the committed
//     BENCH_approx.json baseline: for every (structure, dim, mode,
//     param) curve point present in both, the fresh recall must not
//     fall below the baseline recall by more than the threshold
//     (absolute recall points; default 0.02 = 2 points). Recall is a
//     deterministic function of the seeds, so any drop means the
//     approximate traversal itself changed.
//
// Both sides of each gate are measured with the same methodology
// (QueryBenchStudy / CascadeBenchStudy), so the comparison is
// apples-to-apples; the go_bench rows in the query baseline come from
// `go test -bench` and are reported for humans, not compared here.
// Wall-clock benchmarks on shared CI runners are noisy, which is why
// the default threshold is a generous 20% and why only a regression
// fails the gate — improvements and noise in the fast direction always
// pass.
//
// Usage:
//
//	go run ./cmd/mvpbench -experiment querybench -queryjson fresh.json
//	go run ./cmd/benchguard -baseline BENCH_query.json -fresh fresh.json
//
//	go run ./cmd/mvpbench -experiment cascadebench -cascadejson fresh.json
//	go run ./cmd/benchguard -mode cascade -baseline BENCH_cascade.json -fresh fresh.json
//
//	go run ./cmd/mvpbench -experiment approxbench -approxjson fresh.json
//	go run ./cmd/benchguard -mode approx -baseline BENCH_approx.json -fresh fresh.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mvptree/internal/experiments"
)

// baselineFile is the committed artifact's shape: the report is nested
// under a mode-named key ("querybench" in BENCH_query.json,
// "cascadebench" in BENCH_cascade.json, "approxbench" in
// BENCH_approx.json) next to prose fields.
type baselineFile struct {
	BaselineCommit string                         `json:"baseline_commit"`
	Querybench     experiments.QueryBenchReport   `json:"querybench"`
	Cascadebench   experiments.CascadeBenchReport `json:"cascadebench"`
	Approxbench    experiments.ApproxBenchReport  `json:"approxbench"`
	Quantbench     experiments.QuantBenchReport   `json:"quantbench"`
	Batchbench     experiments.BatchBenchReport   `json:"batchbench"`
}

func main() {
	mode := flag.String("mode", "query", "gate to run: query (wall-clock serving cost), cascade (cascade-on distance counts), approx (approximate-query recall), quant (quantized pre-filter win) or batch (shared-traversal batching win)")
	baselinePath := flag.String("baseline", "", "committed baseline artifact (default BENCH_query.json, BENCH_cascade.json or BENCH_approx.json per mode)")
	freshPath := flag.String("fresh", "", "fresh report written by mvpbench -queryjson / -cascadejson / -approxjson (required)")
	structure := flag.String("structure", "mvpt(", "structure-name prefix to guard (query mode)")
	threshold := flag.Float64("threshold", 0.20, "maximum allowed regression before failing (fractional for query/cascade; absolute recall points for approx, where the default is 0.02)")
	flag.Parse()
	thresholdSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "threshold" {
			thresholdSet = true
		}
	})
	if *freshPath == "" && *mode != "quant" && *mode != "batch" {
		fmt.Fprintln(os.Stderr, "benchguard: -fresh is required")
		os.Exit(2)
	}

	switch *mode {
	case "query":
		if *baselinePath == "" {
			*baselinePath = "BENCH_query.json"
		}
		queryGate(*baselinePath, *freshPath, *structure, *threshold)
	case "cascade":
		if *baselinePath == "" {
			*baselinePath = "BENCH_cascade.json"
		}
		cascadeGate(*baselinePath, *freshPath, *threshold)
	case "approx":
		if *baselinePath == "" {
			*baselinePath = "BENCH_approx.json"
		}
		// The query/cascade gates compare fractional drift; the approx
		// gate compares recall in absolute points, so it has its own
		// default.
		t := *threshold
		if !thresholdSet {
			t = 0.02
		}
		approxGate(*baselinePath, *freshPath, t)
	case "quant":
		// The quant gate is self-contained: it asserts the fresh
		// report's own off-vs-quantized speedup, so -baseline is the
		// fallback report to check when -fresh is omitted. Its
		// threshold default is the required improvement (0.25 = sq8
		// must cut ns/op by ≥ 25%), not an allowed regression.
		t := *threshold
		if !thresholdSet {
			t = 0.25
		}
		path := *freshPath
		if path == "" {
			path = *baselinePath
		}
		if path == "" {
			path = "BENCH_quant.json"
		}
		quantGate(path, *structure, t)
	case "batch":
		// Like quant, the batch gate is self-contained within one
		// report; its threshold is the required speedup fraction, not an
		// allowed regression, and the flag default (0.20) is already the
		// gate's target.
		path := *freshPath
		if path == "" {
			path = *baselinePath
		}
		if path == "" {
			path = "BENCH_batch.json"
		}
		batchGate(path, *structure, *threshold)
	default:
		fmt.Fprintf(os.Stderr, "benchguard: unknown -mode %q (want query, cascade, approx, quant or batch)\n", *mode)
		os.Exit(2)
	}
}

// queryGate compares wall-clock serving cost for one guarded structure.
func queryGate(baselinePath, freshPath, structure string, threshold float64) {
	var base baselineFile
	if err := readJSON(baselinePath, &base); err != nil {
		fatal(err)
	}
	var fresh experiments.QueryBenchReport
	if err := readJSON(freshPath, &fresh); err != nil {
		fatal(err)
	}

	baseRow, err := findRow(base.Querybench.Rows, structure, baselinePath)
	if err != nil {
		fatal(err)
	}
	freshRow, err := findRow(fresh.Rows, structure, freshPath)
	if err != nil {
		fatal(err)
	}

	if base.Querybench.N != fresh.N || base.Querybench.Dim != fresh.Dim ||
		base.Querybench.Queries != fresh.Queries {
		fatal(fmt.Errorf("workload mismatch: baseline n=%d dim=%d queries=%d vs fresh n=%d dim=%d queries=%d (rerun mvpbench with the baseline's workload flags)",
			base.Querybench.N, base.Querybench.Dim, base.Querybench.Queries,
			fresh.N, fresh.Dim, fresh.Queries))
	}

	ok := true
	ok = check("RangeMVP", "ns/op", baseRow.RangeNsPerOp, freshRow.RangeNsPerOp, threshold) && ok
	ok = check("KNNMVP", "ns/op", baseRow.KNNNsPerOp, freshRow.KNNNsPerOp, threshold) && ok
	if !ok {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL (baseline %s, commit %s)\n", baselinePath, base.BaselineCommit)
		os.Exit(1)
	}
	fmt.Println("benchguard: PASS")
}

// cascadeGate compares cascade-on per-query distance counts for every
// row shared by the baseline and the fresh report.
func cascadeGate(baselinePath, freshPath string, threshold float64) {
	var base baselineFile
	if err := readJSON(baselinePath, &base); err != nil {
		fatal(err)
	}
	var fresh experiments.CascadeBenchReport
	if err := readJSON(freshPath, &fresh); err != nil {
		fatal(err)
	}
	b := &base.Cascadebench
	if b.N != fresh.N || b.Dim != fresh.Dim || b.Queries != fresh.Queries || b.Words != fresh.Words {
		fatal(fmt.Errorf("workload mismatch: baseline n=%d dim=%d queries=%d words=%d vs fresh n=%d dim=%d queries=%d words=%d (rerun mvpbench with the baseline's workload flags)",
			b.N, b.Dim, b.Queries, b.Words, fresh.N, fresh.Dim, fresh.Queries, fresh.Words))
	}

	freshRows := make(map[string]*experiments.CascadeBenchRow, len(fresh.Rows))
	for i := range fresh.Rows {
		r := &fresh.Rows[i]
		freshRows[r.Structure+"/"+r.Workload] = r
	}

	ok := true
	compared := 0
	for i := range b.Rows {
		br := &b.Rows[i]
		key := br.Structure + "/" + br.Workload
		fr, found := freshRows[key]
		if !found {
			fmt.Fprintf(os.Stderr, "benchguard: %s: baseline row missing from fresh report\n", key)
			ok = false
			continue
		}
		compared++
		ok = check(key+" range", "dist/q", br.RangeDistOn, fr.RangeDistOn, threshold) && ok
		ok = check(key+" knn", "dist/q", br.KNNDistOn, fr.KNNDistOn, threshold) && ok
	}
	if compared == 0 {
		fatal(fmt.Errorf("%s: cascadebench section has no rows", baselinePath))
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL (baseline %s, commit %s)\n", baselinePath, base.BaselineCommit)
		os.Exit(1)
	}
	fmt.Println("benchguard: PASS")
}

// approxGate compares recall at every curve point shared by the
// baseline and the fresh report. Unlike the other gates the threshold
// is absolute — recall is in [0, 1], so "no more than `threshold`
// recall points below baseline" is the natural contract and avoids the
// divide-by-small-baseline instability a fractional comparison would
// have at low-recall points.
func approxGate(baselinePath, freshPath string, threshold float64) {
	var base baselineFile
	if err := readJSON(baselinePath, &base); err != nil {
		fatal(err)
	}
	var fresh experiments.ApproxBenchReport
	if err := readJSON(freshPath, &fresh); err != nil {
		fatal(err)
	}
	b := &base.Approxbench
	if b.N != fresh.N || b.Queries != fresh.Queries || b.K != fresh.K {
		fatal(fmt.Errorf("workload mismatch: baseline n=%d queries=%d k=%d vs fresh n=%d queries=%d k=%d (rerun mvpbench with the baseline's workload flags)",
			b.N, b.Queries, b.K, fresh.N, fresh.Queries, fresh.K))
	}

	freshRows := make(map[string]*experiments.ApproxBenchRow, len(fresh.Rows))
	for i := range fresh.Rows {
		r := &fresh.Rows[i]
		freshRows[approxKey(r)] = r
	}

	ok := true
	compared := 0
	for i := range b.Rows {
		br := &b.Rows[i]
		key := approxKey(br)
		fr, found := freshRows[key]
		if !found {
			fmt.Fprintf(os.Stderr, "benchguard: %s: baseline row missing from fresh report\n", key)
			ok = false
			continue
		}
		compared++
		drop := br.Recall - fr.Recall
		status := "ok"
		if drop > threshold {
			status = fmt.Sprintf("RECALL REGRESSION (> %.1f points)", threshold*100)
			ok = false
		}
		fmt.Printf("%-28s baseline recall %6.1f%%   fresh %6.1f%%   %+5.1f pts   %s\n",
			key, 100*br.Recall, 100*fr.Recall, 100*(fr.Recall-br.Recall), status)
	}
	if compared == 0 {
		fatal(fmt.Errorf("%s: approxbench section has no rows", baselinePath))
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL (baseline %s, commit %s)\n", baselinePath, base.BaselineCommit)
		os.Exit(1)
	}
	fmt.Println("benchguard: PASS")
}

// quantGate asserts the quantized pre-filter's win inside one report:
// for every guarded-structure workload at dim ≥ 20 under l2 — the
// bandwidth-bound regime the filter targets — the sq8 row must cut
// range or kNN ns/op by at least `required` relative to the mode-off
// row of the same workload. The gate passes if any guarded
// workload meets the target (the filter is regime-dependent by design:
// small cache-resident configs legitimately do not improve), and fails
// if no guarded workload exists or none meets it.
func quantGate(path, structure string, required float64) {
	// Accept both the committed artifact (report nested under
	// "quantbench") and a bare mvpbench -quantjson report.
	var base baselineFile
	if err := readJSON(path, &base); err != nil {
		fatal(err)
	}
	rep := base.Quantbench
	if len(rep.Rows) == 0 {
		if err := readJSON(path, &rep); err != nil {
			fatal(err)
		}
	}
	if len(rep.Rows) == 0 {
		fatal(fmt.Errorf("%s: no quantbench rows", path))
	}

	type cell struct{ rangeNs, knnNs float64 }
	offs, ons := make(map[string]cell), make(map[string]cell)
	var keys []string
	for i := range rep.Rows {
		r := &rep.Rows[i]
		baseName, _, _ := strings.Cut(r.Structure, "+")
		if !strings.HasPrefix(baseName, structure) || r.Dim < 20 || r.Metric != "l2" {
			continue
		}
		key := fmt.Sprintf("%s/%s/dim=%d", baseName, r.Metric, r.Dim)
		if r.Mode == "off" {
			offs[key] = cell{r.RangeNsPerOp, r.KNNNsPerOp}
			keys = append(keys, key)
		} else {
			ons[key] = cell{r.RangeNsPerOp, r.KNNNsPerOp}
		}
	}
	if len(keys) == 0 {
		fatal(fmt.Errorf("%s: no guarded rows (structure prefix %q, dim >= 20, metric l2)", path, structure))
	}
	met := false
	for _, key := range keys {
		off := offs[key]
		on, okOn := ons[key]
		if !okOn || off.rangeNs <= 0 || off.knnNs <= 0 {
			fmt.Fprintf(os.Stderr, "benchguard: %s: incomplete off/on rows, skipping\n", key)
			continue
		}
		rangeCut := 1 - on.rangeNs/off.rangeNs
		knnCut := 1 - on.knnNs/off.knnNs
		status := "below target"
		if rangeCut >= required || knnCut >= required {
			status = "MEETS TARGET"
			met = true
		}
		fmt.Printf("%-28s range %9.0f -> %9.0f ns/op (%+5.1f%%)   knn %9.0f -> %9.0f ns/op (%+5.1f%%)   %s\n",
			key, off.rangeNs, on.rangeNs, -100*rangeCut, off.knnNs, on.knnNs, -100*knnCut, status)
	}
	if !met {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL — no guarded workload cut range or knn ns/op by >= %.0f%% (%s)\n", required*100, path)
		os.Exit(1)
	}
	fmt.Println("benchguard: PASS")
}

// batchGate asserts shared-traversal batching's win inside one report:
// the guarded structure's best batched range ns/query must beat its
// sequential (batch-size-1) row by at least `required`.
func batchGate(path, structure string, required float64) {
	// Accept both the committed artifact (report nested under
	// "batchbench") and a bare mvpbench -batchjson report.
	var base baselineFile
	if err := readJSON(path, &base); err != nil {
		fatal(err)
	}
	rep := base.Batchbench
	if len(rep.Rows) == 0 {
		if err := readJSON(path, &rep); err != nil {
			fatal(err)
		}
	}
	if len(rep.Rows) == 0 {
		fatal(fmt.Errorf("%s: no batchbench rows", path))
	}

	var seq, best float64
	var bestB int
	for _, r := range rep.Rows {
		if !strings.HasPrefix(r.Structure, structure) {
			continue
		}
		if r.BatchSize == 1 {
			seq = r.NsPerQuery
		} else if best == 0 || r.NsPerQuery < best {
			best, bestB = r.NsPerQuery, r.BatchSize
		}
	}
	if seq <= 0 || best <= 0 {
		fatal(fmt.Errorf("%s: incomplete sequential/batched rows for structure prefix %q", path, structure))
	}
	speedup := seq / best
	status := "MEETS TARGET"
	if speedup < 1+required {
		status = fmt.Sprintf("BELOW TARGET (< %.2fx)", 1+required)
	}
	fmt.Printf("range    seq %10.0f ns/query   best batched %10.0f ns/query (B=%d)   %5.2fx   %s\n",
		seq, best, bestB, speedup, status)
	if speedup < 1+required {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL — batched range execution must be >= %.0f%% faster than sequential (%s)\n", required*100, path)
		os.Exit(1)
	}
	fmt.Println("benchguard: PASS")
}

// approxKey identifies one curve point across reports.
func approxKey(r *experiments.ApproxBenchRow) string {
	return fmt.Sprintf("%s/dim=%d/%s/%s=%g", r.Structure, r.Dim, r.Workload, r.Mode, r.Param)
}

// check prints one comparison line and reports whether fresh is within
// threshold of base. A zero or negative baseline cannot be compared and
// fails loudly rather than dividing by it.
func check(name, unit string, base, fresh, threshold float64) bool {
	if base <= 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s baseline %s is %.1f, cannot compare\n", name, unit, base)
		return false
	}
	delta := (fresh - base) / base
	status := "ok"
	if delta > threshold {
		status = fmt.Sprintf("REGRESSION (> %.0f%%)", threshold*100)
	}
	fmt.Printf("%-22s baseline %12.1f %s   fresh %12.1f %s   %+6.1f%%   %s\n",
		name, base, unit, fresh, unit, delta*100, status)
	return delta <= threshold
}

func findRow(rows []experiments.QueryBenchRow, prefix, path string) (*experiments.QueryBenchRow, error) {
	for i := range rows {
		if strings.HasPrefix(rows[i].Structure, prefix) {
			return &rows[i], nil
		}
	}
	return nil, fmt.Errorf("%s: no querybench row with structure prefix %q", path, prefix)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
