package bktree

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
)

var words = []string{
	"book", "books", "boo", "boon", "cook", "cake", "cape", "cart",
	"case", "cast", "bake", "lake", "take", "rake", "fake", "face",
	"fact", "fast", "mast", "most", "must", "mist", "fist", "fish",
	"wish", "wash", "cash", "dash", "dish", "dosh",
}

func TestRangeMatchesLinearScan(t *testing.T) {
	c := metric.NewCounter(metric.Edit)
	tree, err := New(words, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := linear.New(words, metric.NewCounter(metric.Edit))
	for _, q := range []string{"book", "fish", "zzz", "", "cas"} {
		for _, r := range []float64{0, 1, 2, 3, 10} {
			got := append([]string(nil), tree.Range(q, r)...)
			want := append([]string(nil), truth.Range(q, r)...)
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("Range(%q, %g) = %v, want %v", q, r, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Range(%q, %g) = %v, want %v", q, r, got, want)
				}
			}
		}
	}
}

func TestKNNMatchesLinearScan(t *testing.T) {
	c := metric.NewCounter(metric.Edit)
	tree, err := New(words, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := linear.New(words, metric.NewCounter(metric.Edit))
	for _, q := range []string{"book", "fish", "zzzzz", ""} {
		for _, k := range []int{1, 3, 10, 100} {
			got := tree.KNN(q, k)
			want := truth.KNN(q, k)
			if len(got) != len(want) {
				t.Fatalf("KNN(%q, %d): %d results, want %d", q, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Dist != want[i].Dist {
					t.Fatalf("KNN(%q, %d)[%d].Dist = %g, want %g", q, k, i, got[i].Dist, want[i].Dist)
				}
				if metric.Edit(q, got[i].Item) != got[i].Dist {
					t.Fatalf("KNN(%q, %d)[%d] reported wrong distance", q, k, i)
				}
			}
		}
	}
}

func TestDuplicates(t *testing.T) {
	c := metric.NewCounter(metric.Edit)
	tree, err := New([]string{"dup", "dup", "dup", "other"}, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 4 {
		t.Errorf("Len() = %d, want 4", tree.Len())
	}
	if got := tree.Range("dup", 0); len(got) != 3 {
		t.Errorf("Range(dup, 0) = %v, want 3 copies", got)
	}
}

func TestNonIntegerMetricRejected(t *testing.T) {
	c := metric.NewCounter(metric.L2)
	if _, err := New([][]float64{{0.5}, {1.3}}, c, Options{}); err == nil {
		t.Error("non-integer metric accepted")
	}
}

func TestRandomizedHamming(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 1))
	items := make([]string, 300)
	for i := range items {
		b := make([]byte, 8)
		for j := range b {
			b[j] = 'a' + byte(rng.IntN(4))
		}
		items[i] = string(b)
	}
	c := metric.NewCounter(metric.Hamming)
	tree, err := New(items, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := linear.New(items, metric.NewCounter(metric.Hamming))
	for qi := 0; qi < 10; qi++ {
		b := make([]byte, 8)
		for j := range b {
			b[j] = 'a' + byte(rng.IntN(4))
		}
		q := string(b)
		for _, r := range []float64{0, 1, 2, 4, 8} {
			got := tree.Range(q, r)
			want := truth.Range(q, r)
			if len(got) != len(want) {
				t.Fatalf("Range(%q, %g): %d results, want %d", q, r, len(got), len(want))
			}
		}
	}
}

func TestEmptyAndEdgeCases(t *testing.T) {
	c := metric.NewCounter(metric.Edit)
	tree, err := New(nil, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 {
		t.Errorf("empty Len() = %d", tree.Len())
	}
	if got := tree.Range("x", 5); got != nil {
		t.Errorf("empty Range = %v", got)
	}
	if got := tree.KNN("x", 3); got != nil {
		t.Errorf("empty KNN = %v", got)
	}
	if got := tree.Range("x", -1); got != nil {
		t.Errorf("negative radius Range = %v", got)
	}
}

func TestPruningSavesWork(t *testing.T) {
	// BK-tree range queries with small radius must touch far fewer
	// nodes than the corpus size on a diverse corpus.
	rng := rand.New(rand.NewPCG(52, 1))
	items := make([]string, 2000)
	for i := range items {
		n := 4 + rng.IntN(8)
		b := make([]byte, n)
		for j := range b {
			b[j] = 'a' + byte(rng.IntN(26))
		}
		items[i] = string(b)
	}
	c := metric.NewCounter(metric.Edit)
	tree, err := New(items, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Reset()
	tree.Range("hello", 1)
	if c.Count() > int64(len(items))/2 {
		t.Errorf("Range(hello, 1) used %d distance computations over %d items; no pruning", c.Count(), len(items))
	}
}

// Two builds of the same words must behave identically: children are
// walked in ascending key order, so range result order, the kNN queue
// order (hence its SearchStats) are a function of the data alone. With
// children in a Go map — the earlier layout — both varied run to run.
func TestTwoBuildsBehaveIdentically(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 4))
	corpus := dataset.Words(rng, 600, dataset.WordOptions{MisspellingsPer: 2})
	queries := dataset.SampleQueries(rng, corpus, 8)
	mk := func() *Tree[string] {
		tree, err := New(corpus, metric.NewCounter(metric.Edit), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	a, b := mk(), mk()
	for _, q := range queries {
		ra, sa := a.RangeWithStats(q, 2)
		rb, sb := b.RangeWithStats(q, 2)
		if !slices.Equal(ra, rb) {
			t.Fatalf("Range(%q, 2): result order differs between builds:\n%v\n%v", q, ra, rb)
		}
		if sa != sb {
			t.Fatalf("Range(%q, 2): stats differ between builds:\n%+v\n%+v", q, sa, sb)
		}
		na, ka := a.KNNWithStats(q, 5)
		nb, kb := b.KNNWithStats(q, 5)
		if !slices.Equal(na, nb) {
			t.Fatalf("KNN(%q, 5): neighbors differ between builds:\n%v\n%v", q, na, nb)
		}
		if ka != kb {
			t.Fatalf("KNN(%q, 5): stats differ between builds:\n%+v\n%+v", q, ka, kb)
		}
	}
}
