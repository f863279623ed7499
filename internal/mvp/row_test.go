package mvp

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"mvptree/internal/build"
	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/metric"
)

// TestRowKernelBuildsTheSameTree pins that measuring rows through the
// edit row kernel changes nothing observable: a word tree built over
// metric.NewCounter(metric.Edit), which carries metric.EditRow, and one
// built over a closure of Edit, which carries no kernels and measures
// pair by pair, save the same bytes and have the same shape and
// construction counts — at v = 1 and 2, serially and with rows fanned
// out, and at sizes either side of the batch that fans out. A few words
// past the row kernel's 64 bytes take its per-pair fallback.
func TestRowKernelBuildsTheSameTree(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(31, 7)), 3000, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	words = append(words, strings.Repeat("lorem ipsum ", 6), strings.Repeat("dolor sit amet ", 5), strings.Repeat("x", 64))
	plain := func(a, b string) float64 { return metric.Edit(a, b) }
	if metric.NewCounter(metric.Edit).Row() == nil || metric.NewCounter(plain).Row() != nil {
		t.Fatal("want a row kernel on metric.Edit and none on the closure")
	}
	type built struct {
		save  []byte
		shape Stats
		stats build.Stats
	}
	buildWith := func(t *testing.T, items []string, dist metric.DistanceFunc[string], opts Options) built {
		tree, st, err := NewWithStats(items, metric.NewCounter(dist), opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf, codec.EncodeString); err != nil {
			t.Fatal(err)
		}
		return built{buf.Bytes(), tree.Shape(), st}
	}
	for _, n := range []int{build.MeasureThreshold - 56, len(words)} {
		items := words[len(words)-n:]
		for _, workers := range []int{1, 3} {
			opts := Options{Partitions: 3, LeafCapacity: 20, PathLength: 5, Build: Build{Seed: 4, Workers: workers}}
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				eachV(t, opts, func(t *testing.T, opts Options) {
					row, pairs := buildWith(t, items, metric.Edit, opts), buildWith(t, items, plain, opts)
					if !bytes.Equal(row.save, pairs.save) {
						t.Error("Save bytes differ between the row kernel and the pair loop")
					}
					if row.shape != pairs.shape {
						t.Errorf("Shape: row kernel %+v, pair loop %+v", row.shape, pairs.shape)
					}
					if row.stats.Distances != pairs.stats.Distances || row.stats.SelectionDistances != pairs.stats.SelectionDistances {
						t.Errorf("Distances, SelectionDistances: row kernel %d, %d, pair loop %d, %d",
							row.stats.Distances, row.stats.SelectionDistances, pairs.stats.Distances, pairs.stats.SelectionDistances)
					}
				})
			})
		}
	}
}
