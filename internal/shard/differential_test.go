package shard

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
)

// diffCase is one dataset of the shard layer's differential harness:
// items, queries, the metric and the codec SaveDir and LoadDir take.
type diffCase[T any] struct {
	name           string
	items, queries []T
	dist           metric.DistanceFunc[T]
	enc            func(T) ([]byte, error)
	dec            func([]byte) (T, error)
}

func clusteredCase(seed uint64, n int) diffCase[[]float64] {
	rng := rand.New(rand.NewPCG(seed, 1))
	items := dataset.ClusteredVectors(rng, n, 8, 60, 0.15)
	return diffCase[[]float64]{"clustered", items, dataset.SampleQueries(rng, items, 6), metric.L2, codec.EncodeVector, codec.DecodeVector}
}

func uniformCase(seed uint64, n int) diffCase[[]float64] {
	rng := rand.New(rand.NewPCG(seed, 2))
	return diffCase[[]float64]{"uniform", dataset.UniformVectors(rng, n, 8), dataset.UniformQueries(rng, 6, 8), metric.L2, codec.EncodeVector, codec.DecodeVector}
}

func wordsCase(seed uint64, n int) diffCase[string] {
	rng := rand.New(rand.NewPCG(seed, 3))
	items := dataset.Words(rng, n, dataset.WordOptions{})
	queries := append(dataset.SampleQueries(rng, items, 3), dataset.Words(rng, 3, dataset.WordOptions{})...)
	return diffCase[string]{"words", items, queries, metric.Edit, codec.EncodeString, codec.DecodeString}
}

// tiesCase is TestKNNTieBreaking's fixture: groups of four coincident 1-D
// points, so the k-th distance is almost always a tie, and so are the
// distances to the pivot at the shells' ends.
func tiesCase() diffCase[int] {
	const n, group = 120, 4
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	enc, dec := intCodec()
	dist := func(a, b int) float64 { return math.Abs(float64(a/group) - float64(b/group)) }
	return diffCase[int]{"ties", items, []int{0, 17, 50, 90, 119}, dist, enc, dec}
}

// diffShards are the shard counts every dataset is checked at, under
// each of the Assignments.
var diffShards = []int{1, 2, 3, 5}

// TestShardLayerDifferential is the shard layer's differential harness:
// for every shard count and assignment, over L2 clustered and uniform
// vectors, edit-distance words and the tie fixture, checkShardLayer.
func TestShardLayerDifferential(t *testing.T) {
	vectors := []diffCase[[]float64]{clusteredCase(51, 600), uniformCase(51, 600)}
	words, ties := wordsCase(51, 600), tiesCase()
	for _, a := range Assignments {
		for _, s := range diffShards {
			for _, c := range vectors {
				checkShardLayer(t, c, s, a)
			}
			checkShardLayer(t, words, s, a)
			checkShardLayer(t, ties, s, a)
		}
	}
}

// FuzzShardSearch is TestShardLayerDifferential's body over a fuzzed
// dataset size, seed, shard count and assignment.
func FuzzShardSearch(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(300), uint8(2), uint8(0))
	f.Add(uint64(2), uint8(1), uint16(40), uint8(5), uint8(1))
	f.Add(uint64(3), uint8(2), uint16(200), uint8(3), uint8(2))
	f.Add(uint64(4), uint8(3), uint16(0), uint8(4), uint8(0))
	f.Add(uint64(5), uint8(0), uint16(3), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, kind uint8, size uint16, shards, assign uint8) {
		n := 1 + int(size)%400
		s := 1 + int(shards)%6
		a := Assignments[int(assign)%len(Assignments)]
		switch kind % 4 {
		case 0:
			checkShardLayer(t, clusteredCase(seed, n), s, a)
		case 1:
			checkShardLayer(t, uniformCase(seed, n), s, a)
		case 2:
			checkShardLayer(t, wordsCase(seed, n), s, a)
		default:
			checkShardLayer(t, tiesCase(), s, a)
		}
	})
}

// checkShardLayer builds c's items into s shards under assignment a and
// checks, for a range query at two radii (the distances to each query's
// n/50-th and n/8-th nearest items) and a kNN query at three k:
//   - an exact answer is the linear scan's: the same items for a range
//     query, the same distances, each a neighbor's own, for kNN;
//   - a query's Distances() is its counter delta;
//   - SearchBatch in groups of 8 answers byte-identically to Search —
//     items, order, SearchStats and summed counter delta;
//   - so does a Clone after Own, and the index SaveDir and LoadDir make.
func checkShardLayer[T any](t *testing.T, c diffCase[T], s int, a Assignment) {
	t.Helper()
	name := fmt.Sprintf("%s/n=%d/S=%d/%v", c.name, len(c.items), s, a)
	be := MVP[T](mvpOpts)
	counter := metric.NewCounter(c.dist)
	x, err := New(c.items, counter, be, Options{Shards: s, Assignment: a, Workers: 2, Seed: 11})
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	if (x.shells != nil) != (a == Shells && x.Shards() > 1) {
		t.Fatalf("%s: shells %v", name, x.shells)
	}
	var reqs []index.Query[T]
	for _, q := range c.queries {
		ds := scanDists(c, q)
		for _, rank := range []int{len(ds) / 50, len(ds) / 8} {
			reqs = append(reqs, index.RangeQuery(q, ds[rank]))
		}
		for _, k := range []int{1, 7, 40} {
			reqs = append(reqs, index.KNNQuery(q, k))
		}
	}
	want := make([]index.Result[T], len(reqs))
	deltas := make([]int64, len(reqs))
	for i, req := range reqs {
		c0 := counter.Count()
		want[i] = x.Search(req)
		deltas[i] = counter.Count() - c0
		if want[i].Stats.Distances() != deltas[i] {
			t.Fatalf("%s: request %d: stats say %d distances, the counter %d", name, i, want[i].Stats.Distances(), deltas[i])
		}
		checkScan(t, name, c, req, want[i])
	}

	same := func(label string, y *Index[T], yc *metric.Counter[T]) {
		t.Helper()
		for i, req := range reqs {
			c0 := yc.Count()
			got := y.Search(req)
			if d := yc.Count() - c0; d != deltas[i] || !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s %s: request %d: %+v at %d distances, want %+v at %d", name, label, i, got, d, want[i], deltas[i])
			}
		}
		for lo := 0; lo < len(reqs); lo += 8 {
			hi := min(lo+8, len(reqs))
			got := make([]index.Result[T], hi-lo)
			c0 := yc.Count()
			y.SearchBatch(reqs[lo:hi], got)
			var wd int64
			for i := lo; i < hi; i++ {
				wd += deltas[i]
			}
			if d := yc.Count() - c0; d != wd {
				t.Fatalf("%s %s: SearchBatch [%d, %d): counter delta %d, Search %d", name, label, lo, hi, d, wd)
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[lo+i]) {
					t.Fatalf("%s %s: SearchBatch request %d: %+v, Search %+v", name, label, lo+i, got[i], want[lo+i])
				}
			}
		}
	}
	same("built", x, counter)
	owned := x.Clone()
	owned.Own()
	same("owned", owned, counter)
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir, be, c.enc); err != nil {
		t.Fatalf("%s: SaveDir: %v", name, err)
	}
	lc := metric.NewCounter(c.dist)
	loaded, err := LoadDir(dir, lc, be, c.dec)
	if err != nil {
		t.Fatalf("%s: LoadDir: %v", name, err)
	}
	same("loaded", loaded, lc)
}

// scanDists is every item's distance from q, ascending.
func scanDists[T any](c diffCase[T], q T) []float64 {
	ds := make([]float64, len(c.items))
	for i, it := range c.items {
		ds[i] = c.dist(q, it)
	}
	sort.Float64s(ds)
	return ds
}

// checkScan holds an exact answer against the linear scan over c.
func checkScan[T any](t *testing.T, name string, c diffCase[T], req index.Query[T], res index.Result[T]) {
	t.Helper()
	if req.K > 0 {
		want := scanDists(c, req.Point)
		want = want[:min(req.K, len(want))]
		got := make([]float64, len(res.Neighbors))
		for i, nb := range res.Neighbors {
			got[i] = nb.Dist
			if d := c.dist(req.Point, nb.Item); d != nb.Dist {
				t.Fatalf("%s: kNN %d reports a neighbor at %g, which is at %g", name, req.K, nb.Dist, d)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: kNN %d distances %v, the scan's %v", name, req.K, got, want)
		}
		return
	}
	var want, got []string
	for _, it := range c.items {
		if c.dist(req.Point, it) <= req.Radius {
			want = append(want, fmt.Sprint(it))
		}
	}
	for _, it := range res.Items {
		got = append(got, fmt.Sprint(it))
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: range %g found %d items, the scan %d", name, req.Radius, len(got), len(want))
	}
}
