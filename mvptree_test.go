package mvptree_test

// Black-box tests of the public facade: everything here uses only the
// exported API, the way a downstream user would.

import (
	"bytes"
	"math/rand/v2"
	"sort"
	"testing"

	"mvptree"
)

func TestQuickstartFlow(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	vectors := mvptree.UniformVectors(rng, 1000, 12)
	tree, err := mvptree.New(vectors, mvptree.L2, mvptree.Options{
		Partitions: 3, LeafCapacity: 40, PathLength: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 1000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	build := tree.Counter().Count()
	if build <= 0 {
		t.Error("construction made no distance computations")
	}

	q := vectors[0]
	got := tree.Range(q, 0.4)
	scan := mvptree.NewLinear(vectors, mvptree.L2)
	want := scan.Range(q, 0.4)
	if len(got) != len(want) {
		t.Errorf("Range found %d items, linear scan %d", len(got), len(want))
	}
	queryCost := tree.Counter().Count() - build
	if queryCost <= 0 || queryCost >= int64(tree.Len()) {
		t.Errorf("query cost %d; want within (0, n)", queryCost)
	}

	nn := tree.KNN(q, 5)
	if len(nn) != 5 || nn[0].Dist != 0 {
		t.Errorf("KNN(self, 5) = %v", nn)
	}
}

func TestAllStructuresAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 1))
	vectors := mvptree.UniformVectors(rng, 500, 8)
	queries := mvptree.UniformVectors(rng, 5, 8)

	type namedIndex struct {
		name string
		idx  mvptree.Index[[]float64]
	}
	var indexes []namedIndex
	mustBuild := func(name string, idx mvptree.Index[[]float64], err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		indexes = append(indexes, namedIndex{name, idx})
	}
	mvpTree, err := mvptree.New(vectors, mvptree.L2, mvptree.Options{})
	mustBuild("mvp", mvpTree, err)
	vpTree, err := mvptree.NewVP(vectors, mvptree.L2, mvptree.VPOptions{})
	mustBuild("vp", vpTree, err)
	gnatTree, err := mvptree.NewGNAT(vectors, mvptree.L2, mvptree.GNATOptions{})
	mustBuild("gnat", gnatTree, err)
	pivots, err := mvptree.NewPivotTable(vectors, mvptree.L2, mvptree.PivotOptions{})
	mustBuild("pivots", pivots, err)
	indexes = append(indexes, namedIndex{"linear", mvptree.NewLinear(vectors, mvptree.L2)})

	for _, q := range queries {
		for _, r := range []float64{0.2, 0.5, 1.0} {
			want := signature(indexes[len(indexes)-1].idx.Range(q, r))
			for _, ni := range indexes {
				got := signature(ni.idx.Range(q, r))
				if len(got) != len(want) {
					t.Fatalf("%s: Range r=%g found %d items, linear %d", ni.name, r, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: Range r=%g result set differs from linear scan", ni.name, r)
					}
				}
			}
		}
		for _, k := range []int{1, 7} {
			want := indexes[len(indexes)-1].idx.KNN(q, k)
			for _, ni := range indexes {
				got := ni.idx.KNN(q, k)
				if len(got) != len(want) {
					t.Fatalf("%s: KNN k=%d returned %d items", ni.name, k, len(got))
				}
				for i := range got {
					if diff := got[i].Dist - want[i].Dist; diff > 1e-9 || diff < -1e-9 {
						t.Fatalf("%s: KNN k=%d dist[%d] = %g, want %g", ni.name, k, i, got[i].Dist, want[i].Dist)
					}
				}
			}
		}
	}
}

// signature canonicalizes a vector result set for comparison.
func signature(items [][]float64) []string {
	out := make([]string, len(items))
	for i, v := range items {
		b := make([]byte, 0, len(v)*8)
		for _, x := range v {
			b = appendFloat(b, x)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

func appendFloat(b []byte, x float64) []byte {
	u := uint64(int64(x * 1e12))
	for i := 0; i < 8; i++ {
		b = append(b, byte(u>>(8*i)))
	}
	return b
}

func TestBKTreePublicAPI(t *testing.T) {
	words := []string{"hello", "hallo", "hullo", "world", "wold", "help"}
	tree, err := mvptree.NewBK(words, mvptree.EditDistance)
	if err != nil {
		t.Fatal(err)
	}
	got := tree.Range("hello", 1)
	if len(got) != 3 { // hello, hallo, hullo
		t.Errorf("Range(hello, 1) = %v", got)
	}
	if err := tree.Insert("hell"); err != nil {
		t.Fatal(err)
	}
	if got := tree.Range("hello", 1); len(got) != 4 {
		t.Errorf("after Insert, Range(hello, 1) = %v", got)
	}
}

func TestMetricsFacade(t *testing.T) {
	a, b := []float64{0, 0}, []float64{3, 4}
	if mvptree.L1(a, b) != 7 || mvptree.L2(a, b) != 5 || mvptree.LInf(a, b) != 4 {
		t.Error("vector metrics wrong")
	}
	if mvptree.Lp(2)(a, b) != 5 {
		t.Error("Lp wrong")
	}
	if mvptree.WeightedLp(1, []float64{1, 2})(a, b) != 11 {
		t.Error("WeightedLp wrong")
	}
	if mvptree.Scaled(mvptree.L1, 2)(a, b) != 14 {
		t.Error("Scaled wrong")
	}
	if mvptree.EditDistance("abc", "axc") != 1 || mvptree.HammingDistance("abc", "axc") != 1 {
		t.Error("string metrics wrong")
	}
	if mvptree.Discrete[int]()(1, 1) != 0 || mvptree.Discrete[int]()(1, 2) != 1 {
		t.Error("Discrete wrong")
	}
	if err := mvptree.CheckAxioms(mvptree.L2, [][]float64{a, b, {1, 1}}, 1e-9); err != nil {
		t.Errorf("CheckAxioms: %v", err)
	}
}

func TestImageFacade(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	imgs := mvptree.SyntheticImages(rng, 30, mvptree.ImageOptions{Width: 16, Height: 16, Subjects: 3})
	tree, err := mvptree.New(imgs, mvptree.ImageL1, mvptree.Options{Partitions: 2, LeafCapacity: 5, PathLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	nn := tree.KNN(imgs[0], 3)
	if len(nn) != 3 || nn[0].Dist != 0 {
		t.Errorf("image KNN = %v", nn)
	}

	var buf bytes.Buffer
	if err := mvptree.EncodePGM(&buf, imgs[0]); err != nil {
		t.Fatal(err)
	}
	back, err := mvptree.DecodePGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mvptree.ImageL1(imgs[0], back) != 0 {
		t.Error("PGM round trip changed the image")
	}
}

func TestHistogramFacade(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 1))
	vs := mvptree.UniformVectors(rng, 120, 20)
	h := mvptree.PairwiseHistogram(vs, mvptree.L2, 0.01)
	if h.Total() != 120*119/2 {
		t.Errorf("Total = %d", h.Total())
	}
	hs := mvptree.SampledPairwiseHistogram(rng, vs, mvptree.L2, 0.01, 1000)
	if hs.Total() != 1000 {
		t.Errorf("sampled Total = %d", hs.Total())
	}
	if m := h.Mean(); m < 1.5 || m > 2.0 {
		t.Errorf("mean pairwise distance %g", m)
	}
}

func TestTreeStats(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 1))
	vectors := mvptree.UniformVectors(rng, 800, 6)
	tree, err := mvptree.New(vectors, mvptree.L2, mvptree.Options{Partitions: 3, LeafCapacity: 20, PathLength: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := tree.Shape()
	if s.VantagePoints+s.LeafItems != 800 {
		t.Errorf("Shape accounting: %d + %d != 800", s.VantagePoints, s.LeafItems)
	}
	if s.Height == 0 || s.Leaves == 0 {
		t.Errorf("Shape = %+v", s)
	}
}

func TestClusteredAndWordsGenerators(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	cv := mvptree.ClusteredVectors(rng, 300, 10, 50, 0.15)
	if len(cv) != 300 || len(cv[0]) != 10 {
		t.Errorf("ClusteredVectors shape %dx%d", len(cv), len(cv[0]))
	}
	ws := mvptree.Words(rng, 100, mvptree.WordOptions{})
	if len(ws) != 100 {
		t.Errorf("Words len %d", len(ws))
	}
	qs := mvptree.SampleQueries(rng, ws, 10)
	if len(qs) != 10 {
		t.Errorf("SampleQueries len %d", len(qs))
	}
}

func TestGeneralTreePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	vectors := mvptree.UniformVectors(rng, 400, 8)
	tree, err := mvptree.NewGeneral(vectors, mvptree.L2, mvptree.GeneralOptions{
		Vantages: 3, Partitions: 2, LeafCapacity: 10, PathLength: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	scan := mvptree.NewLinear(vectors, mvptree.L2)
	q := vectors[11]
	got := tree.Range(q, 0.5)
	want := scan.Range(q, 0.5)
	if len(got) != len(want) {
		t.Errorf("GeneralTree Range found %d, linear %d", len(got), len(want))
	}
	nn := tree.KNN(q, 3)
	if len(nn) != 3 || nn[0].Dist != 0 {
		t.Errorf("GeneralTree KNN = %v", nn)
	}
	if tree.Vantages() != 3 {
		t.Errorf("Vantages() = %d", tree.Vantages())
	}
}
