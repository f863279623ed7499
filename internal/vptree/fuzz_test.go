package vptree

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
)

// FuzzLoad holds the constructor's Load to the core's contract on the
// streams this package's trees save (internal/mvp's FuzzLoad owns the
// grammar): it never panics, and what it returns holds Len() items,
// answers every query kind and survives Save → Load → Save byte for byte.
// Items decode as strings under edit distance, so any bytes are an item.
func FuzzLoad(f *testing.F) {
	enc := func(s string) ([]byte, error) { return []byte(s), nil }
	dec := func(b []byte) (string, error) { return string(b), nil }
	words := dataset.Words(rand.New(rand.NewPCG(16, 8)), 120, dataset.WordOptions{MinLen: 3, MaxLen: 8, MisspellingsPer: 2})
	for i, opts := range []Options{
		{}, {Order: 3}, {Order: 5}, {LeafCapacity: 2}, {LeafCapacity: 13}, {Order: 3, LeafCapacity: 5},
		{Selection: SelectBestSpread}, {Order: 4, LeafCapacity: 40, Selection: SelectBestSpread},
	} {
		opts.Seed = uint64(i)
		tree, err := New(words[:15*i], metric.NewCounter(metric.Edit), opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf, enc); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if i == 5 {
			f.Add(buf.Bytes()[:buf.Len()/2]) // truncated
			f.Add(append(bytes.Clone(buf.Bytes()), 0))
		}
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		load := func(stream []byte) (*Tree[string], error) {
			return Load(bytes.NewReader(stream), metric.NewCounter(metric.Edit), dec)
		}
		tree, err := load(stream)
		if err != nil {
			return
		}
		if held := len(tree.RangeFarther("", 0)); held != tree.Len() {
			t.Fatalf("Len() = %d, the tree holds %d items", tree.Len(), held)
		}
		for _, q := range []string{"", "probe"} {
			tree.Range(q, 1)
			tree.KNN(q, 3)
			tree.RangeFarther(q, 2)
			tree.KFarthest(q, 3)
		}
		reqs := []index.Query[string]{index.RangeQuery("probe", 2), index.RangeQuery("", 0)}
		tree.SearchBatch(reqs, make([]index.Result[string], len(reqs)))

		var first, second bytes.Buffer
		if err := tree.Save(&first, enc); err != nil {
			t.Fatalf("Save of a loaded tree: %v", err)
		}
		again, err := load(first.Bytes())
		if err != nil {
			t.Fatalf("Load of a loaded tree's Save: %v", err)
		}
		if err := again.Save(&second, enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save -> Load -> Save changed the stream")
		}
	})
}
