package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// exactCount reports whether a metric is a count that must repeat
// exactly for the same seed.
func exactCount(name string) bool {
	return strings.HasSuffix(name, "_dist_frac") || name == "build.distances" || name == "dynamic.rebuilds"
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints, per (metric, workload), how b differs from the
// baseline a, and fails when an end-to-end metric is worse by more than
// its bound, when more operations failed, when an exact count of the
// same seed differs, or when b lacks a workload or an end-to-end metric
// the baseline has.
func compareFiles(out io.Writer, sp *spec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	sameSeed := a.Header.Seed == b.Header.Seed
	breaches := 0
	row := func(workload, metric, va, vb, change, bound, verdict string) {
		if verdict == "BREACH" {
			breaches++
		}
		fmt.Fprintf(out, "%-16s %-30s %14s %14s %8s %6s  %s\n", workload, metric, va, vb, change, bound, verdict)
	}
	num := func(v float64) string { return fmt.Sprintf("%.4f", v) }
	row("workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, name := range sp.workloadNames() {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil {
			continue // no baseline to hold b against
		}
		if rb == nil {
			row(name, "(every metric)", "", "missing", "", "", "BREACH")
			continue
		}
		if rb.Failed > ra.Failed {
			row(name, "failed", fmt.Sprint(ra.Failed), fmt.Sprint(rb.Failed), "", "0", "BREACH")
		}
		metrics := make([]string, 0, len(ra.Metrics))
		for m := range ra.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			decl, _ := sp.find(m)
			va := ra.Metrics[m]
			vb, ok := rb.Metrics[m]
			if !ok {
				verdict := ""
				if decl.Bound > 0 {
					verdict = "BREACH"
				}
				row(name, m, num(va), "missing", "", "", verdict)
				continue
			}
			// From a baseline of 0 any move is without measure.
			change := 0.0
			switch {
			case va != 0:
				change = (vb - va) / math.Abs(va)
			case vb != 0:
				change = math.Inf(int(math.Copysign(1, vb)))
			}
			worse := change
			if decl.Better == "higher" {
				worse = -change
			}
			verdict, bound := "", ""
			switch {
			case sameSeed && exactCount(m):
				bound = "exact"
				if verdict = "ok"; va != vb {
					verdict = "BREACH"
				}
			case decl.Bound > 0:
				bound = fmt.Sprintf("%.0f%%", decl.Bound*100)
				if verdict = "ok"; worse > decl.Bound {
					verdict = "BREACH"
				}
			}
			row(name, m, num(va), num(vb), fmt.Sprintf("%+.1f%%", change*100), bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics outside their bounds", breaches)
	}
	return nil
}
