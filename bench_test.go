package mvptree_test

// One benchmark per table/figure of the paper (Figures 4–11, the
// headline claims, and the ablation/extension studies from DESIGN.md),
// each driving the same experiment definitions as cmd/mvpbench at a
// reduced scale, plus micro-benchmarks of the core operations.
//
// Figure benchmarks attach their headline measurements as custom
// benchmark metrics (distcomps/query), so `go test -bench .` regenerates
// the numbers EXPERIMENTS.md discusses. Run cmd/mvpbench for the
// paper-scale versions.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"mvptree"
	"mvptree/internal/bench"
	"mvptree/internal/experiments"
	"mvptree/internal/metric"
)

// benchConfig is the reduced scale used by the figure benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Queries = 20
	cfg.TreeSeeds = []uint64{101, 202}
	return cfg
}

// reportCells attaches one metric per (structure, sweep value) pair.
func reportCells(b *testing.B, tbl *bench.Table) {
	b.Helper()
	last := tbl.Values[len(tbl.Values)-1]
	for _, name := range tbl.Structures {
		for _, v := range []float64{tbl.Values[0], last} {
			cell, err := tbl.Cell(v, name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(cell.AvgDistComps, name+"@"+formatValue(tbl.Label, v))
		}
	}
}

func formatValue(label string, v float64) string {
	s := label + "="
	switch {
	case v == float64(int64(v)):
		return s + itoa(int64(v))
	default:
		// one decimal is enough for the swept radii
		whole := int64(v)
		frac := int64((v - float64(whole)) * 100)
		if frac < 0 {
			frac = -frac
		}
		return s + itoa(whole) + "." + itoa(frac)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkFig4UniformHistogram(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		h := experiments.Fig4(cfg)
		b.ReportMetric(h.Mean(), "mean-distance")
	}
}

func BenchmarkFig5ClusteredHistogram(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		h := experiments.Fig5(cfg)
		b.ReportMetric(h.Quantile(0.99)-h.Quantile(0.01), "distance-span")
	}
}

func BenchmarkFig6ImageHistogramL1(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		h := experiments.Fig6(cfg)
		b.ReportMetric(float64(len(h.Peaks(5, 0.05))), "peaks")
	}
}

func BenchmarkFig7ImageHistogramL2(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		h := experiments.Fig7(cfg)
		b.ReportMetric(float64(len(h.Peaks(5, 0.05))), "peaks")
	}
}

func BenchmarkFig8UniformVectors(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, tbl)
	}
}

func BenchmarkFig9ClusteredVectors(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, tbl)
	}
}

func BenchmarkFig10ImagesL1(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, tbl)
	}
}

func BenchmarkFig11ImagesL2(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, tbl)
	}
}

func BenchmarkClaimsHeadline(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		claims, err := experiments.Claims(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, cl := range claims {
			if cl.A == "mvpt(3,80)" {
				b.ReportMetric(cl.SavingsPc, cl.Workload+"-savings%@r="+formatValue("", cl.Radius)[1:])
			}
		}
	}
}

func BenchmarkAblationPathLength(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationP(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, tbl)
	}
}

func BenchmarkAblationLeafCapacity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationK(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, tbl)
	}
}

func BenchmarkAblationSecondVantage(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationSV2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, tbl)
	}
}

func BenchmarkKNNStudy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.KNNStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, tbl)
	}
}

func BenchmarkStructureStudy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.StructureStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range rep.Cells {
			cell := strings.ReplaceAll(c.Workload, " ", "-") + "/" + strings.Fields(c.Query)[0]
			for _, r := range c.Rows {
				b.ReportMetric(r.Distances, r.Structure+"@"+cell)
			}
		}
	}
}

func BenchmarkWordStudy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.WordStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, tbl)
	}
}

// Micro-benchmarks of the core operations in wall-clock terms.

func benchVectors(n, dim int) ([][]float64, [][]float64) {
	rng := rand.New(rand.NewPCG(42, 42))
	return mvptree.UniformVectors(rng, n, dim), mvptree.UniformVectors(rng, 64, dim)
}

// BenchmarkBuildMVP compares serial and parallel construction of the
// paper's mvp-tree configuration; the tree built is identical for every
// worker count, so the sub-benchmarks measure pure wall-clock speedup.
func BenchmarkBuildMVP(b *testing.B) {
	items, _ := benchVectors(10000, 20)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mvptree.New(items, mvptree.L2, mvptree.Options{
					Partitions: 3, LeafCapacity: 80, PathLength: 5,
					Build: mvptree.BuildOptions{Workers: workers},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildMVPVectors is the build the repository benchmark's
// uniform-l2 workload times: 50 000 uniform vectors of dimension 20
// under L2, the paper's options, two workers. (BenchmarkBuildMVP builds
// a fifth of that at other worker counts.)
func BenchmarkBuildMVPVectors(b *testing.B) {
	items := mvptree.UniformVectors(rand.New(rand.NewPCG(42, 42)), 50000, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mvptree.New(items, mvptree.L2, mvptree.Options{
			Partitions: 3, LeafCapacity: 80, PathLength: 5,
			Build: mvptree.BuildOptions{Workers: 2},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildMVPWords is the build the repository benchmark's
// words-edit workload times: 50 000 words under edit distance, the
// paper's options, two workers.
func BenchmarkBuildMVPWords(b *testing.B) {
	items := mvptree.Words(rand.New(rand.NewPCG(42, 42)), 50000, mvptree.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mvptree.New(items, mvptree.EditDistance, mvptree.Options{
			Partitions: 3, LeafCapacity: 80, PathLength: 5,
			Build: mvptree.BuildOptions{Workers: 2},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildVP is BenchmarkBuildMVP for the binary vp-tree, whose
// leaf-heavy recursion stresses Fork more than Measure.
func BenchmarkBuildVP(b *testing.B) {
	items, _ := benchVectors(10000, 20)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mvptree.NewVP(items, mvptree.L2, mvptree.VPOptions{
					Order: 2, Build: mvptree.BuildOptions{Workers: workers},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRangeMVP(b *testing.B) {
	items, queries := benchVectors(10000, 20)
	tree, err := mvptree.New(items, mvptree.L2, mvptree.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Range(queries[i%len(queries)], 0.3)
	}
}

func BenchmarkRangeVP(b *testing.B) {
	items, queries := benchVectors(10000, 20)
	tree, err := mvptree.NewVP(items, mvptree.L2, mvptree.VPOptions{Order: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Range(queries[i%len(queries)], 0.3)
	}
}

func BenchmarkRangeLinear(b *testing.B) {
	items, queries := benchVectors(10000, 20)
	scan := mvptree.NewLinear(items, mvptree.L2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan.Range(queries[i%len(queries)], 0.3)
	}
}

func BenchmarkKNNMVP(b *testing.B) {
	items, queries := benchVectors(10000, 20)
	tree, err := mvptree.New(items, mvptree.L2, mvptree.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNN(queries[i%len(queries)], 10)
	}
}

func BenchmarkKNNVP(b *testing.B) {
	items, queries := benchVectors(10000, 20)
	tree, err := mvptree.NewVP(items, mvptree.L2, mvptree.VPOptions{Order: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNN(queries[i%len(queries)], 10)
	}
}

// BenchmarkEditDistance times the edit kernels: "words" is the exact
// kernel over dictionary-like words; the len=L sub-benchmarks run
// EditUpTo over equal-length strings (every second pair two edits
// apart, the others unrelated) so the 64-byte cliff of the bit-parallel
// path (len 64 vs 65) and the band/bit-vector crossover (bound 1 and 4
// vs +Inf) are numbers of their own.
func BenchmarkEditDistance(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	words := mvptree.Words(rng, 256, mvptree.WordOptions{MinLen: 8, MaxLen: 16})
	b.Run("words", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mvptree.EditDistance(words[i%256], words[(i+1)%256])
		}
	})
	for _, length := range []int{8, 32, 64, 65, 200} {
		pool := make([]string, 256)
		for i := range pool {
			s := make([]byte, length)
			if i%2 == 1 {
				copy(s, pool[i-1])
				s[rng.IntN(length)] = 'z'
				s[rng.IntN(length)] = 'y'
			} else {
				for j := range s {
					s[j] = byte('a' + rng.IntN(8))
				}
			}
			pool[i] = string(s)
		}
		for _, bound := range []float64{1, 4, math.Inf(1)} {
			b.Run(fmt.Sprintf("len=%d/bound=%g", length, bound), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					metric.EditUpTo(pool[i%256], pool[(i+1)%256], bound)
				}
			})
		}
	}
}

func BenchmarkImageL1(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 8))
	imgs := mvptree.SyntheticImages(rng, 16, mvptree.ImageOptions{Width: 64, Height: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mvptree.ImageL1(imgs[i%16], imgs[(i+1)%16])
	}
}

func BenchmarkBuildGeneral3Vantage(b *testing.B) {
	items, _ := benchVectors(10000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mvptree.NewGeneral(items, mvptree.L2, mvptree.GeneralOptions{
			Vantages: 3, Partitions: 2, LeafCapacity: 80, PathLength: 5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeGeneral3Vantage(b *testing.B) {
	items, queries := benchVectors(10000, 20)
	tree, err := mvptree.NewGeneral(items, mvptree.L2, mvptree.GeneralOptions{
		Vantages: 3, Partitions: 2, LeafCapacity: 80, PathLength: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Range(queries[i%len(queries)], 0.3)
	}
}

func BenchmarkSaveLoadMVP(b *testing.B) {
	items, _ := benchVectors(5000, 20)
	tree, err := mvptree.New(items, mvptree.L2, mvptree.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := mvptree.SaveTree(&buf, tree, mvptree.EncodeVector); err != nil {
			b.Fatal(err)
		}
		if _, err := mvptree.LoadTree(&buf, mvptree.L2, mvptree.DecodeVector); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicInsert(b *testing.B) {
	items, _ := benchVectors(10000, 20)
	store, err := mvptree.NewDynamic(items, mvptree.L2, mvptree.DynamicOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Insert(mvptree.UniformVectors(rng, 1, 20)[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWordStore is the store BenchmarkDynamicRange and BenchmarkDynamicKNN
// query: 5 000 generated words under edit distance, the paper's tree, then
// 500 inserts and 250 deletes, so a query pays for a tree with tombstones
// and a buffer tail.
func benchWordStore(b *testing.B) (*mvptree.DynamicStore[string], []string) {
	words := mvptree.Words(rand.New(rand.NewPCG(42, 42)), 5500, mvptree.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	store, err := mvptree.NewDynamic(words[:5000], mvptree.EditDistance, mvptree.DynamicOptions{
		Tree: mvptree.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i, w := range words[5000:] {
		if err := store.Insert(w); err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := store.Delete(words[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	if store.Buffered() == 0 {
		b.Fatal("the store rebuilt on the way: no buffer tail to measure")
	}
	return store, words
}

func BenchmarkDynamicRange(b *testing.B) {
	store, words := benchWordStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Range(words[i%len(words)], 1)
	}
}

func BenchmarkDynamicKNN(b *testing.B) {
	store, words := benchWordStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.KNN(words[i%len(words)], 10)
	}
}

// BenchmarkCascadeRangeWords is a range query at r = 1 over the same 5 000
// words and the paper's tree, static, with the bound cascade armed at its
// default pivots; dist/op is the paper's cost, the up-front pivots included.
func BenchmarkCascadeRangeWords(b *testing.B) {
	words := mvptree.Words(rand.New(rand.NewPCG(42, 42)), 5000, mvptree.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	tree, err := mvptree.New(words, mvptree.EditDistance, mvptree.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5},
		mvptree.WithCascade[string](mvptree.CascadeOptions{}))
	if err != nil {
		b.Fatal(err)
	}
	before := tree.DistanceCount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Range(words[i%len(words)], 1)
	}
	b.ReportMetric(float64(tree.DistanceCount()-before)/float64(b.N), "dist/op")
}
