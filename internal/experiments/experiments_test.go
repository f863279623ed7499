package experiments

// These tests run every experiment at a tiny scale and assert the
// qualitative shapes the paper reports — the same checks EXPERIMENTS.md
// documents at full scale.

import (
	"math"
	"math/rand/v2"
	"testing"

	"mvptree/internal/bench"
	"mvptree/internal/dataset"
)

// tinyConfig is even smaller than QuickConfig, for unit-test latency.
func tinyConfig() Config {
	return Config{
		N: 1200, Dim: 20, Queries: 10,
		ClusterSize: 100, Epsilon: 0.15,
		ImageCount: 90, ImageDim: 24, ImageSubjects: 6, ImageQueries: 6,
		HistPairs: 30_000,
		DataSeed:  7, TreeSeeds: []uint64{1, 2},
	}
}

func TestFig4UnimodalConcentrated(t *testing.T) {
	h := Fig4(tinyConfig())
	if peaks := h.Peaks(5, 0.1); len(peaks) != 1 {
		t.Errorf("Figure 4 histogram peaks = %v, want exactly 1", peaks)
	}
	// The paper: distances concentrate around 1.75 within [1, 2.5].
	if m := h.Mean(); m < 1.6 || m > 1.9 {
		t.Errorf("Figure 4 mean distance = %g, paper reports ≈ 1.75", m)
	}
	if q := h.Quantile(0.99); q > 2.5 {
		t.Errorf("Figure 4 99th percentile = %g, paper reports distances ≤ 2.5", q)
	}
}

func TestFig5WiderThanFig4(t *testing.T) {
	c := tinyConfig()
	h4, h5 := Fig4(c), Fig5(c)
	// Figure 5's distribution has "a wider range" of pairwise
	// distances: compare interquantile spans.
	span4 := h4.Quantile(0.99) - h4.Quantile(0.01)
	span5 := h5.Quantile(0.99) - h5.Quantile(0.01)
	if span5 <= span4 {
		t.Errorf("clustered span %.3f ≤ uniform span %.3f; Figure 5 must be wider", span5, span4)
	}
}

func TestFig6And7Bimodal(t *testing.T) {
	c := tinyConfig()
	for name, h := range map[string]interface {
		Peaks(int, float64) []int
	}{"Fig6": Fig6(c), "Fig7": Fig7(c)} {
		if peaks := h.Peaks(5, 0.05); len(peaks) < 2 {
			t.Errorf("%s histogram peaks = %v, want ≥ 2 (two peaks per paper)", name, peaks)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tbl, err := Fig8(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The defining orderings of Figure 8: both mvp-trees beat both
	// vp-trees, and mvpt(3,80) is the best, at the smallest radius.
	r := Fig8Radii[0]
	get := func(name string) float64 {
		cell, err := tbl.Cell(r, name)
		if err != nil {
			t.Fatal(err)
		}
		return cell.AvgDistComps
	}
	vp2, vp3 := get("vpt(2)"), get("vpt(3)")
	m9, m80 := get("mvpt(3,9)"), get("mvpt(3,80)")
	bestVP := min(vp2, vp3)
	if m9 >= bestVP {
		t.Errorf("mvpt(3,9) = %.0f ≥ best vpt = %.0f at r=%g", m9, bestVP, r)
	}
	if m80 >= m9 {
		t.Errorf("mvpt(3,80) = %.0f ≥ mvpt(3,9) = %.0f at r=%g", m80, m9, r)
	}
}

func TestFig9Shape(t *testing.T) {
	tbl, err := Fig9(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := Fig9Radii[0]
	m80c, err := tbl.Cell(r, "mvpt(3,80)")
	if err != nil {
		t.Fatal(err)
	}
	vp3c, err := tbl.Cell(r, "vpt(3)")
	if err != nil {
		t.Fatal(err)
	}
	if m80c.AvgDistComps >= vp3c.AvgDistComps {
		t.Errorf("clustered: mvpt(3,80) = %.0f ≥ vpt(3) = %.0f at r=%g",
			m80c.AvgDistComps, vp3c.AvgDistComps, r)
	}
}

func TestFig10And11Shape(t *testing.T) {
	c := tinyConfig()
	for name, run := range map[string]func(Config) (*bench.Table, error){
		"Fig10": Fig10,
		"Fig11": Fig11,
	} {
		tbl, err := run(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// mvpt(3,13) gives the best performance among all structures
		// (paper §5.2.B), checked at a mid radius.
		r := ImageRadii[2]
		best, err := tbl.Cell(r, "mvpt(3,13)")
		if err != nil {
			t.Fatal(err)
		}
		vp2, err := tbl.Cell(r, "vpt(2)")
		if err != nil {
			t.Fatal(err)
		}
		if best.AvgDistComps >= vp2.AvgDistComps {
			t.Errorf("%s: mvpt(3,13) = %.0f ≥ vpt(2) = %.0f at r=%g",
				name, best.AvgDistComps, vp2.AvgDistComps, r)
		}
	}
}

func TestClaims(t *testing.T) {
	claims, err := Claims(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 8 {
		t.Fatalf("got %d claims, want 8", len(claims))
	}
	for _, cl := range claims {
		if cl.A == "mvpt(3,80)" && cl.SavingsPc <= 0 {
			t.Errorf("%s r=%g: mvpt(3,80) saves %.1f%%, want positive", cl.Workload, cl.Radius, cl.SavingsPc)
		}
	}
}

func TestAblationP(t *testing.T) {
	tbl, err := AblationP(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := Fig8Radii[0]
	p0, err := tbl.Cell(r, "mvpt-p=0")
	if err != nil {
		t.Fatal(err)
	}
	p8, err := tbl.Cell(r, "mvpt-p=8")
	if err != nil {
		t.Fatal(err)
	}
	if p8.AvgDistComps >= p0.AvgDistComps {
		t.Errorf("p=8 cost %.0f ≥ p=0 cost %.0f; PATH filtering must help", p8.AvgDistComps, p0.AvgDistComps)
	}
}

func TestAblationKMonotoneBuildCost(t *testing.T) {
	tbl, err := AblationK(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Larger leaves → shorter trees → cheaper construction.
	r := Fig8Radii[0]
	k5, err := tbl.Cell(r, "mvpt(3,5)")
	if err != nil {
		t.Fatal(err)
	}
	k160, err := tbl.Cell(r, "mvpt(3,160)")
	if err != nil {
		t.Fatal(err)
	}
	if k160.BuildCost >= k5.BuildCost {
		t.Errorf("k=160 build cost %.0f ≥ k=5 build cost %.0f", k160.BuildCost, k5.BuildCost)
	}
}

func TestAblationSV2(t *testing.T) {
	tbl, err := AblationSV2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Both variants must at least produce a working tree; farthest
	// should not be dramatically worse than random.
	sav, err := tbl.SavingsPercent("mvpt(3,80)", "mvpt(3,80)-rnd2")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sav {
		if s < -50 {
			t.Errorf("farthest sv2 %.1f%% worse than random at r=%g", -s, Fig8Radii[i])
		}
	}
}

func TestAblationSV1(t *testing.T) {
	results, err := AblationSV1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d workloads, want uniform, clustered and words", len(results))
	}
	for _, r := range results {
		// At this scale only the root of the two vector trees is large
		// enough to sample (the word corpus, 240 words, is not), so the
		// shape to hold is: same answers, selection paid for exactly
		// where it happened, and a chosen sv1 not dramatically worse
		// than a drawn one.
		sav, err := r.Table.SavingsPercent("mvpt(3,80)-spr1", "mvpt(3,80)")
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range r.Table.Values {
			drawn, spread := r.Table.Cells[i][0], r.Table.Cells[i][1]
			if drawn.AvgResults != spread.AvgResults {
				t.Errorf("%s r=%g: %.2f results with sv1 drawn, %.2f chosen", r.Workload, v, drawn.AvgResults, spread.AvgResults)
			}
			if sav[i] < -50 {
				t.Errorf("%s r=%g: chosen sv1 %.1f%% worse than drawn", r.Workload, v, -sav[i])
			}
			if drawn.SelectCost != 0 || spread.BuildCost-drawn.BuildCost != spread.SelectCost {
				t.Errorf("%s: build %.0f (selection %.0f) chosen vs %.0f (selection %.0f) drawn",
					r.Workload, spread.BuildCost, spread.SelectCost, drawn.BuildCost, drawn.SelectCost)
			}
			if sampled := r.Workload != "words"; (spread.SelectCost > 0) != sampled {
				t.Errorf("%s: selection cost %.0f", r.Workload, spread.SelectCost)
			}
		}
	}
}

func TestKNNStudy(t *testing.T) {
	tbl, err := KNNStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for vi, v := range tbl.Values {
		for si, s := range tbl.Structures {
			if got := tbl.Cells[vi][si].AvgResults; got != v {
				t.Errorf("%s returned %.1f results for k=%g", s, got, v)
			}
		}
	}
}

func TestStructureStudy(t *testing.T) {
	tbl, err := StructureStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every indexed structure must beat the linear scan at the
	// smallest radius, and all must agree on result counts.
	r := Fig8Radii[0]
	lin, err := tbl.Cell(r, "linear")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tbl.Structures {
		if s == "linear" {
			continue
		}
		cell, err := tbl.Cell(r, s)
		if err != nil {
			t.Fatal(err)
		}
		if cell.AvgDistComps >= lin.AvgDistComps {
			t.Errorf("%s cost %.0f ≥ linear %.0f at r=%g", s, cell.AvgDistComps, lin.AvgDistComps, r)
		}
		if cell.AvgResults != lin.AvgResults {
			t.Errorf("%s found %.2f results, linear %.2f", s, cell.AvgResults, lin.AvgResults)
		}
	}
}

func TestWordStudy(t *testing.T) {
	tbl, err := WordStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := WordRadii[0]
	lin, err := tbl.Cell(r, "linear")
	if err != nil {
		t.Fatal(err)
	}
	bkt, err := tbl.Cell(r, "bkt")
	if err != nil {
		t.Fatal(err)
	}
	if bkt.AvgDistComps >= lin.AvgDistComps {
		t.Errorf("BK-tree cost %.0f ≥ linear %.0f at r=%g", bkt.AvgDistComps, lin.AvgDistComps, r)
	}
	if bkt.AvgResults != lin.AvgResults {
		t.Errorf("BK-tree found %.2f results, linear %.2f", bkt.AvgResults, lin.AvgResults)
	}
}

func TestVantageStudy(t *testing.T) {
	tbl, err := VantageStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := Fig8Radii[0]
	v1, err := tbl.Cell(r, "gmvpt(1,9,80)")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := tbl.Cell(r, "gmvpt(2,3,80)")
	if err != nil {
		t.Fatal(err)
	}
	if v2.AvgDistComps >= v1.AvgDistComps {
		t.Errorf("gmvpt(2,3) cost %.0f ≥ gmvpt(1,9) cost %.0f; sharing vantage points must help",
			v2.AvgDistComps, v1.AvgDistComps)
	}
	// All four structures agree on result counts.
	for vi := range tbl.Values {
		base := tbl.Cells[vi][0].AvgResults
		for si := range tbl.Structures {
			if tbl.Cells[vi][si].AvgResults != base {
				t.Errorf("%s disagrees on result count at %s=%g",
					tbl.Structures[si], tbl.Label, tbl.Values[vi])
			}
		}
	}
}

// TestApproxStudy checks the two facts the approximate-mode table leans
// on: a budget row never spends more than its budget on any query, and
// the exact competitor at k′ reaches recall k′/ApproxK exactly.
func TestApproxStudy(t *testing.T) {
	results, err := ApproxStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ApproxBudgetFractions) + len(ApproxEpsilons) + ApproxK - 1; len(results) != want {
		t.Fatalf("got %d results, want %d", len(results), want)
	}
	exact := 0
	for _, r := range results {
		switch {
		case r.Budget > 0:
			if r.MaxDistances > r.Budget {
				t.Errorf("budget %d: a query spent %d distances", r.Budget, r.MaxDistances)
			}
		case r.Epsilon == 0:
			exact++
			if want := float64(r.K) / ApproxK; math.Abs(r.Recall-want) > 1e-9 {
				t.Errorf("exact k'=%d: recall %.4f, want %.4f", r.K, r.Recall, want)
			}
		}
		if r.Recall < 0 || r.Recall > 1 || r.Distances <= 0 {
			t.Errorf("row out of range: %+v", r)
		}
	}
	if exact != ApproxK-1 {
		t.Errorf("%d exact rows, want %d", exact, ApproxK-1)
	}
}

func TestFilterStudy(t *testing.T) {
	rows, err := FilterStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig8Radii) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		sum := row.DFrac + row.PathFrac + row.ComputedFrac
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("r=%g: fractions sum to %g", row.Radius, sum)
		}
		if row.VantageShare < 0 || row.VantageShare > 1 {
			t.Errorf("r=%g: vantage share %g", row.Radius, row.VantageShare)
		}
	}
	// At the smallest radius most candidates must be filtered without
	// a distance computation (that is the mvp-tree's entire point).
	if rows[0].ComputedFrac > 0.5 {
		t.Errorf("r=%g: %.0f%% of candidates needed real computations",
			rows[0].Radius, 100*rows[0].ComputedFrac)
	}
}

func TestImageSetOverride(t *testing.T) {
	// The -imgdir hook: supplying a real image collection must replace
	// the synthetic one everywhere the image experiments look.
	c := tinyConfig()
	rng := rand.New(rand.NewPCG(9, 9))
	custom := dataset.SyntheticImages(rng, 40, dataset.ImageOptions{Width: 16, Height: 16, Subjects: 4})
	c.ImageSet = custom
	c.ImageCount = len(custom)
	c.ImageDim = 16
	c.ImageQueries = 4
	if got := c.Images(); len(got) != 40 || got[0] != custom[0] {
		t.Fatal("Images() did not return the override set")
	}
	h := Fig6(c)
	if h.Total() != 40*39/2 {
		t.Errorf("Fig6 over override counted %d pairs", h.Total())
	}
	tbl, err := Fig10(c)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := tbl.Cell(ImageRadii[0], "vpt(2)")
	if err != nil {
		t.Fatal(err)
	}
	if cell.AvgDistComps <= 0 || cell.AvgDistComps > 40 {
		t.Errorf("Fig10 over 40 override images: %.1f computations", cell.AvgDistComps)
	}
}
