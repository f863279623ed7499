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

// TestRowKernelBuildsTheSameTree pins that measuring rows through a
// row kernel changes nothing observable: a tree built over
// metric.NewCounter(metric.Edit), which carries metric.EditRow, or
// metric.L2, which carries metric.L2Row, and one built over a closure of
// the same function, which carries no kernels and measures pair by pair,
// save the same bytes and have the same shape and construction counts —
// at v = 1 and 2, serially and with rows fanned out, and at sizes either
// side of the batch that fans out; the larger trees select their vantage
// points on a sample, whose rows go through the kernel too. A few words
// past the edit kernel's 64 bytes take its per-pair fallback.
func TestRowKernelBuildsTheSameTree(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(31, 7)), 3000, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	words = append(words, strings.Repeat("lorem ipsum ", 6), strings.Repeat("dolor sit amet ", 5), strings.Repeat("x", 64))
	sameTreeWithRowKernel(t, words, metric.Edit, codec.EncodeString)
	t.Run("vectors", func(t *testing.T) {
		sameTreeWithRowKernel(t, uniformItems(31, len(words), 10), metric.L2, codec.EncodeVector)
	})
}

// sameTreeWithRowKernel is TestRowKernelBuildsTheSameTree over items of
// one type: dist must be a registered metric with a row kernel.
func sameTreeWithRowKernel[T any](t *testing.T, items []T, dist metric.DistanceFunc[T], enc func(T) ([]byte, error)) {
	plain := func(a, b T) float64 { return dist(a, b) }
	if metric.NewCounter(dist).Row() == nil || metric.NewCounter(plain).Row() != nil {
		t.Fatal("want a row kernel on the metric and none on the closure")
	}
	type built struct {
		save  []byte
		shape Stats
		stats build.Stats
	}
	buildWith := func(t *testing.T, items []T, dist metric.DistanceFunc[T], opts Options) built {
		tree, st, err := NewWithStats(items, metric.NewCounter(dist), opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf, enc); err != nil {
			t.Fatal(err)
		}
		return built{buf.Bytes(), tree.Shape(), st}
	}
	for _, n := range []int{build.MeasureThreshold - 56, len(items)} {
		items := items[len(items)-n:]
		for _, workers := range []int{1, 3} {
			opts := Options{Partitions: 3, LeafCapacity: 20, PathLength: 5, Build: Build{Seed: 4, Workers: workers}}
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				eachV(t, opts, func(t *testing.T, opts Options) {
					row, pairs := buildWith(t, items, dist, opts), buildWith(t, items, plain, opts)
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
					if !opts.RandomFirstVantage && len(items) > 256 && row.stats.SelectionDistances == 0 {
						t.Error("no vantage point was selected on a sample")
					}
				})
			})
		}
	}
}

// TestCosineBuildsTheL2Tree: Cosine is L2 on unit vectors and is
// registered as its alias, so it carries L2's row kernel, and a tree
// over normalized vectors under either metric saves the same bytes at
// the same construction count.
func TestCosineBuildsTheL2Tree(t *testing.T) {
	if metric.NewCounter(metric.Cosine).Row() == nil {
		t.Fatal("Cosine has no row kernel: its builds measure pair by pair")
	}
	items := metric.NormalizeL2Set(uniformItems(37, 3000, 12))
	var saved [2][]byte
	var costs [2]int64
	for i, dist := range []metric.DistanceFunc[[]float64]{metric.Cosine, metric.L2} {
		tree, st, err := NewWithStats(items, metric.NewCounter(dist), Options{Partitions: 3, LeafCapacity: 20, PathLength: 5, Build: Build{Seed: 6}})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf, codec.EncodeVector); err != nil {
			t.Fatal(err)
		}
		saved[i], costs[i] = buf.Bytes(), st.Distances
	}
	if !bytes.Equal(saved[0], saved[1]) || costs[0] != costs[1] {
		t.Errorf("Cosine's tree saves %d bytes at %d distances, L2's %d bytes at %d", len(saved[0]), costs[0], len(saved[1]), costs[1])
	}
}
