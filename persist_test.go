package mvptree_test

import (
	"bytes"
	"io"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"mvptree"
)

func TestSaveLoadTreePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 1))
	vectors := mvptree.UniformVectors(rng, 500, 8)
	orig, err := mvptree.New(vectors, mvptree.L2, mvptree.Options{Partitions: 3, LeafCapacity: 20, PathLength: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mvptree.SaveTree(&buf, orig, mvptree.EncodeVector); err != nil {
		t.Fatal(err)
	}
	loaded, err := mvptree.LoadTree(&buf, mvptree.L2, mvptree.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Counter().Count() != 0 {
		t.Errorf("loading computed %d distances; must be zero", loaded.Counter().Count())
	}
	q := vectors[3]
	a, b := orig.KNN(q, 7), loaded.KNN(q, 7)
	for i := range a {
		if a[i].Dist != b[i].Dist {
			t.Fatalf("KNN differs after reload at %d: %g vs %g", i, a[i].Dist, b[i].Dist)
		}
	}
}

func TestSaveLoadVPTreePublicAPI(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	orig, err := mvptree.NewVP(words, mvptree.EditDistance, mvptree.VPOptions{Order: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mvptree.SaveVPTree(&buf, orig, mvptree.EncodeString); err != nil {
		t.Fatal(err)
	}
	loaded, err := mvptree.LoadVPTree(&buf, mvptree.EditDistance, mvptree.DecodeString)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Range("beta", 2)
	want := orig.Range("beta", 2)
	if len(got) != len(want) {
		t.Errorf("Range after reload: %v vs %v", got, want)
	}
}

func TestLoadTreeRejectsWrongKind(t *testing.T) {
	// A vp-tree stream is a Tree's (TestSaveLoadVPTreePublicAPI); the
	// wrong kinds are the one other stream this library writes, the
	// dynamic store's, and the vp-tree's retired format, which is
	// refused by name.
	words := []string{"a", "b", "c"}
	d, err := mvptree.NewDynamic(words, mvptree.EditDistance, mvptree.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mvptree.SaveDynamic(&buf, d, mvptree.EncodeString); err != nil {
		t.Fatal(err)
	}
	if _, err := mvptree.LoadTree(&buf, mvptree.EditDistance, mvptree.DecodeString); err == nil {
		t.Error("LoadTree accepted a dynamic store's stream")
	}
	old, err := os.ReadFile("internal/mvp/testdata/pr19_vptree1.vp")
	if err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(io.Reader, mvptree.DistanceFunc[[]float64], mvptree.ItemDecoder[[]float64]) (*mvptree.Tree[[]float64], error){
		"LoadTree": mvptree.LoadTree[[]float64], "LoadVPTree": mvptree.LoadVPTree[[]float64],
	} {
		if _, err := load(bytes.NewReader(old), mvptree.L2, mvptree.DecodeVector); err == nil || !strings.Contains(err.Error(), "VPTREE1") {
			t.Errorf("%s of a VPTREE1 stream: %v", name, err)
		}
	}
}

func TestImageCodecPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	imgs := mvptree.SyntheticImages(rng, 20, mvptree.ImageOptions{Width: 12, Height: 12, Subjects: 2})
	orig, err := mvptree.New(imgs, mvptree.ImageL2, mvptree.Options{LeafCapacity: 4, PathLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mvptree.SaveTree(&buf, orig, mvptree.EncodeImage); err != nil {
		t.Fatal(err)
	}
	loaded, err := mvptree.LoadTree(&buf, mvptree.ImageL2, mvptree.DecodeImage)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Range(imgs[0], 1); len(got) < 1 {
		t.Errorf("self query after reload found %d images", len(got))
	}
}

func TestDynamicStorePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1))
	vectors := mvptree.UniformVectors(rng, 300, 6)
	store, err := mvptree.NewDynamic(vectors, mvptree.L2, mvptree.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	if err := store.Insert(v); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 301 {
		t.Fatalf("Len = %d", store.Len())
	}
	nn := store.KNN(v, 1)
	if len(nn) != 1 || nn[0].Dist != 0 {
		t.Errorf("KNN after insert = %v", nn)
	}
	n, err := store.Delete(v)
	if err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if got := store.Range(v, 0); len(got) != 0 {
		t.Errorf("deleted item still found: %v", got)
	}
}

func TestSaveLoadDynamicPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	vectors := mvptree.UniformVectors(rng, 200, 5)
	store, err := mvptree.NewDynamic(vectors, mvptree.L2, mvptree.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Insert([]float64{9, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mvptree.SaveDynamic(&buf, store, mvptree.EncodeVector); err != nil {
		t.Fatal(err)
	}
	loaded, err := mvptree.LoadDynamic(&buf, mvptree.L2, mvptree.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 201 {
		t.Fatalf("Len = %d", loaded.Len())
	}
	if got := loaded.Range([]float64{9, 9, 9, 9, 9}, 0); len(got) != 1 {
		t.Errorf("inserted item lost across save/load: %v", got)
	}
}
