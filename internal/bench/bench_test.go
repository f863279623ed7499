package bench

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"

	"mvptree/internal/build"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
)

func smallWorkload() (items, queries [][]float64) {
	rng := rand.New(rand.NewPCG(111, 1))
	return dataset.UniformVectors(rng, 300, 6), dataset.UniformQueries(rng, 5, 6)
}

func TestRunRangeBasics(t *testing.T) {
	items, queries := smallWorkload()
	structures := []Structure[[]float64]{Linear[[]float64](), VPT[[]float64](2), MVPT[[]float64](2, 8, 3)}
	radii := []float64{0.2, 0.5}
	tbl, err := RunRange(items, queries, metric.L2, structures, radii, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Cells) != 2 || len(tbl.Cells[0]) != 3 {
		t.Fatalf("table shape %dx%d", len(tbl.Cells), len(tbl.Cells[0]))
	}
	lin, err := tbl.Cell(0.2, "linear")
	if err != nil {
		t.Fatal(err)
	}
	if lin.AvgDistComps != 300 {
		t.Errorf("linear scan avg cost = %g, want exactly 300", lin.AvgDistComps)
	}
	if lin.BuildCost != 0 {
		t.Errorf("linear scan build cost = %g, want 0", lin.BuildCost)
	}
	// All structures must agree on result counts at every radius.
	for vi := range tbl.Values {
		base := tbl.Cells[vi][0].AvgResults
		for si := range tbl.Structures {
			if tbl.Cells[vi][si].AvgResults != base {
				t.Errorf("%s=%g: %s found %.2f results, linear found %.2f",
					tbl.Label, tbl.Values[vi], tbl.Structures[si], tbl.Cells[vi][si].AvgResults, base)
			}
		}
	}
}

func TestRunKNNBasics(t *testing.T) {
	items, queries := smallWorkload()
	structures := []Structure[[]float64]{Linear[[]float64](), MVPT[[]float64](3, 9, 4)}
	tbl, err := RunKNN(items, queries, metric.L2, structures, []int{1, 5}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	for vi, v := range tbl.Values {
		for si := range tbl.Structures {
			if got := tbl.Cells[vi][si].AvgResults; got != v {
				t.Errorf("k=%g: %s returned %.2f results", v, tbl.Structures[si], got)
			}
		}
	}
}

func TestSavingsPercent(t *testing.T) {
	items, queries := smallWorkload()
	structures := []Structure[[]float64]{Linear[[]float64](), MVPT[[]float64](3, 40, 4)}
	tbl, err := RunRange(items, queries, metric.L2, structures, []float64{0.3}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	sav, err := tbl.SavingsPercent("mvpt(3,40)", "linear")
	if err != nil {
		t.Fatal(err)
	}
	if sav[0] <= 0 || sav[0] >= 100 {
		t.Errorf("mvpt saves %.1f%% over linear; expected within (0, 100)", sav[0])
	}
	if _, err := tbl.SavingsPercent("nope", "linear"); err == nil {
		t.Error("unknown structure accepted")
	}
}

func TestTableWriters(t *testing.T) {
	items, queries := smallWorkload()
	tbl, err := RunRange(items, queries, metric.L2,
		[]Structure[[]float64]{VPT[[]float64](2)}, []float64{0.25}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := tbl.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "vpt(2)") || !strings.Contains(out, "0.25") {
		t.Errorf("WriteTo output:\n%s", out)
	}
	sb.Reset()
	if _, err := tbl.WriteResultCounts(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "vpt(2)") {
		t.Errorf("WriteResultCounts output:\n%s", sb.String())
	}
}

func TestRunValidation(t *testing.T) {
	items, queries := smallWorkload()
	if _, err := RunRange(items, queries, metric.L2, nil, []float64{1}, nil); err == nil {
		t.Error("no structures accepted")
	}
	if _, err := RunRange(items, nil, metric.L2,
		[]Structure[[]float64]{Linear[[]float64]()}, []float64{1}, nil); err == nil {
		t.Error("no queries accepted")
	}
	if _, err := RunRange(items, queries, metric.L2,
		[]Structure[[]float64]{Linear[[]float64]()}, nil, nil); err == nil {
		t.Error("no sweep values accepted")
	}
}

func TestBuildErrorPropagates(t *testing.T) {
	items, queries := smallWorkload()
	failing := Structure[[]float64]{
		Name: "failing",
		Build: func(items [][]float64, dist *metric.Counter[[]float64], opts build.Options) (index.Searcher[[]float64], build.Stats, error) {
			return nil, build.Stats{}, errors.New("boom")
		},
	}
	if _, err := RunRange(items, queries, metric.L2,
		[]Structure[[]float64]{failing}, []float64{1}, nil); err == nil {
		t.Error("build error not propagated")
	}
}

func TestWriteCSV(t *testing.T) {
	items, queries := smallWorkload()
	tbl, err := RunRange(items, queries, metric.L2,
		[]Structure[[]float64]{VPT[[]float64](2), MVPT[[]float64](2, 8, 3)}, []float64{0.25, 0.5}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), sb.String())
	}
	if lines[0] != "r,vpt(2),\"mvpt(2,8)\"" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.25,") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestWriteBuildCosts(t *testing.T) {
	items, queries := smallWorkload()
	tbl, err := RunRange(items, queries, metric.L2,
		[]Structure[[]float64]{Linear[[]float64](), VPT[[]float64](2), MVPT[[]float64](2, 4, 3)}, []float64{0.25}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := tbl.WriteBuildCosts(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "vpt(2)") || !strings.Contains(sb.String(), "cost") {
		t.Errorf("WriteBuildCosts:\n%s", sb.String())
	}
	// Only the mvp-tree has a leaf-filter grid to report.
	if c := tbl.Cells[0]; c[1].FilterStep != 0 || c[2].FilterStep <= 0 || c[2].FilterSlack != c[2].FilterStep ||
		!strings.Contains(sb.String(), "filt_slack") {
		t.Errorf("filter grid: vpt %+v, mvpt %+v\n%s", c[1], c[2], sb.String())
	}
}

func TestSeedStdDev(t *testing.T) {
	items, queries := smallWorkload()
	tbl, err := RunRange(items, queries, metric.L2,
		[]Structure[[]float64]{Linear[[]float64](), VPT[[]float64](2)},
		[]float64{0.3}, []uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := tbl.Cell(0.3, "linear")
	if err != nil {
		t.Fatal(err)
	}
	if lin.SeedStdDev != 0 {
		t.Errorf("linear scan seed stddev = %g; scans are seed-independent", lin.SeedStdDev)
	}
	vp, err := tbl.Cell(0.3, "vpt(2)")
	if err != nil {
		t.Fatal(err)
	}
	if vp.SeedStdDev <= 0 {
		t.Errorf("vp-tree seed stddev = %g; random vantage points must vary cost", vp.SeedStdDev)
	}
	if vp.SeedStdDev > vp.AvgDistComps {
		t.Errorf("seed stddev %g exceeds the mean %g", vp.SeedStdDev, vp.AvgDistComps)
	}
}

// TestWorkersDoNotChangeCounts is the harness-level determinism
// guarantee behind cmd/mvpbench -workers: evaluating the query batch in
// parallel must reproduce the sequential distance counts and result
// sizes exactly — parallelism trades wall-clock time only, never the
// paper's cost metric.
func TestWorkersDoNotChangeCounts(t *testing.T) {
	items, queries := smallWorkload()
	structures := []Structure[[]float64]{Linear[[]float64](), VPT[[]float64](2), MVPT[[]float64](2, 8, 3)}
	radii := []float64{0.2, 0.5}
	seeds := []uint64{1, 2}

	seq, err := RunRange(items, queries, metric.L2, structures, radii, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunRange(items, queries, metric.L2, structures, radii, seeds, 8)
	if err != nil {
		t.Fatal(err)
	}
	for vi := range seq.Values {
		for si := range seq.Structures {
			a, b := seq.Cells[vi][si], par.Cells[vi][si]
			// Wall-clock time is the one field parallelism may change.
			a.BuildWall, b.BuildWall = 0, 0
			if a != b {
				t.Errorf("%s=%g %s: workers=1 cell %+v, workers=8 cell %+v",
					seq.Label, seq.Values[vi], seq.Structures[si], a, b)
			}
		}
	}

	seqK, err := RunKNN(items, queries, metric.L2, structures, []int{3, 7}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	parK, err := RunKNN(items, queries, metric.L2, structures, []int{3, 7}, seeds, 8)
	if err != nil {
		t.Fatal(err)
	}
	for vi := range seqK.Values {
		for si := range seqK.Structures {
			a, b := seqK.Cells[vi][si], parK.Cells[vi][si]
			a.BuildWall, b.BuildWall = 0, 0
			if a != b {
				t.Errorf("k=%g %s: parallel KNN cell differs", seqK.Values[vi], seqK.Structures[si])
			}
		}
	}
}
