package mvp

// Tests of the narrow filter arena (fixed.go, Tree.settle): a tree whose
// codes a byte holds exactly keeps them in bytes, and nothing it answers,
// counts or writes differs from the same tree kept in 16-bit codes.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
)

// wideDiff runs every request on narrow and on wide, its twin after
// Widen — one at a time through Search, all at once through SearchBatch,
// and each one's point through RangeFarther at its radius or KFarthest at
// its k — and describes the first answer, order, SearchStats or counter
// delta in which they differ; nil when none does.
func wideDiff[T any](narrow, wide *Tree[T], reqs []index.Query[T]) error {
	delta := func(tr *Tree[T], run func()) int64 {
		before := tr.dist.Count()
		run()
		return tr.dist.Count() - before
	}
	differ := func(what string, a, b any, da, db int64) error {
		if reflect.DeepEqual(a, b) && da == db {
			return nil
		}
		return fmt.Errorf("%s: narrow %v (%d distances), wide %v (%d)", what, a, da, b, db)
	}
	for _, req := range reqs {
		var a, b index.Result[T]
		da, db := delta(narrow, func() { a = narrow.Search(req) }), delta(wide, func() { b = wide.Search(req) })
		if err := differ(fmt.Sprintf("Search(%+v)", req), a, b, da, db); err != nil {
			return err
		}
		var fa, fb any
		if req.K > 0 {
			da = delta(narrow, func() { fa = narrow.KFarthest(req.Point, req.K) })
			db = delta(wide, func() { fb = wide.KFarthest(req.Point, req.K) })
		} else {
			da = delta(narrow, func() { fa = narrow.RangeFarther(req.Point, req.Radius) })
			db = delta(wide, func() { fb = wide.RangeFarther(req.Point, req.Radius) })
		}
		if err := differ(fmt.Sprintf("farther of %+v", req), fa, fb, da, db); err != nil {
			return err
		}
	}
	a, b := make([]index.Result[T], len(reqs)), make([]index.Result[T], len(reqs))
	da, db := delta(narrow, func() { narrow.SearchBatch(reqs, a) }), delta(wide, func() { wide.SearchBatch(reqs, b) })
	return differ("SearchBatch", a, b, da, db)
}

// twinRequests is range at each radius and kNN at each k, exact, with
// ε = 0.5 and under a budget of 40 distances, around each query point.
func twinRequests[T any](queries []T, radii []float64, ks []int) []index.Query[T] {
	var reqs []index.Query[T]
	for _, q := range queries {
		for _, o := range []index.SearchOptions{{}, {Epsilon: 0.5}, {Budget: 40}} {
			for _, r := range radii {
				req := index.RangeQuery(q, r)
				req.Opts = o
				reqs = append(reqs, req)
			}
			for _, k := range ks {
				req := index.KNNQuery(q, k)
				req.Opts = o
				reqs = append(reqs, req)
			}
		}
	}
	return reqs
}

// checkTwins builds a tree twice, narrow as built and widened, and checks
// the two alike: the narrow one holds a byte a code, they answer reqs
// alike (wideDiff) and their Save bytes are the same.
func checkTwins[T any](t *testing.T, name string, enc ItemEncoder[T], reqs []index.Query[T], build func() *Tree[T]) *Tree[T] {
	t.Helper()
	narrow, wide := build(), build()
	wide.Widen()
	if narrow.narrow == nil || narrow.filter != nil || wide.narrow != nil {
		t.Fatalf("%s: the built tree holds %d byte codes and %d wide ones, want only bytes", name, len(narrow.narrow), len(narrow.filter))
	}
	if got, want := narrow.Shape().FilterBytes, narrow.codes(); got != want || wide.Shape().FilterBytes != 2*want {
		t.Fatalf("%s: FilterBytes %d narrow and %d wide, for %d codes", name, got, wide.Shape().FilterBytes, want)
	}
	if err := narrow.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := wideDiff(narrow, wide, reqs); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var a, b bytes.Buffer
	if err := narrow.Save(&a, enc); err != nil {
		t.Fatal(err)
	}
	if err := wide.Save(&b, enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: the narrow tree's Save bytes differ from the wide twin's", name)
	}
	return narrow
}

func TestNarrowCodesChangeNothing(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(39, 1)), 700, dataset.WordOptions{MinLen: 3, MaxLen: 10, MisspellingsPer: 3})
	queries := append([]string{"", "zzzzzzzzzzzzzzzzz"}, words[3], words[250], words[699]+"x", "arbitrary")
	t.Run("words", func(t *testing.T) {
		reqs := twinRequests(queries, []float64{0, 1, 2, 4}, []int{1, 7, 40})
		for _, v := range []int{1, 2} {
			for _, p := range []int{-1, 5} {
				for _, workers := range []int{1, 3} {
					opts := Options{Vantages: v, Partitions: 3, LeafCapacity: 20, PathLength: p, Build: Build{Seed: 5, Workers: workers}}
					checkTwins(t, fmt.Sprintf("v=%d p=%d workers=%d", v, p, workers), codec.EncodeString, reqs, func() *Tree[string] {
						tree, err := New(words, metric.NewCounter(metric.Edit), opts)
						if err != nil {
							t.Fatal(err)
						}
						return tree
					})
				}
			}
		}
	})
	t.Run("hamming-and-discrete", func(t *testing.T) {
		reqs := twinRequests(queries, []float64{0, 1, 3}, []int{1, 10})
		opts := Options{Partitions: 2, LeafCapacity: 13, PathLength: 4, Build: Build{Seed: 3}}
		for name, dist := range map[string]metric.DistanceFunc[string]{"hamming": metric.Hamming, "discrete": metric.Discrete[string]()} {
			checkTwins(t, name, codec.EncodeString, reqs, func() *Tree[string] {
				tree, err := New(words[:300], metric.NewCounter(dist), opts)
				if err != nil {
					t.Fatal(err)
				}
				return tree
			})
		}
	})
	// Points on a line, both ends doubled, in one leaf: whatever the
	// vantage points, a leaf row holds the distance between the ends. At
	// 254 the codes are whole distances times 2^8 and narrow at that
	// shift, the largest on narrowTop. At 255 the largest needs a shift
	// of 9, which 255·2^8 is no multiple of, and an end 2^-8 from 0 puts
	// odd codes in the rows: those two keep 16 bits.
	line := func(a, b float64) float64 { return math.Abs(a - b) }
	for _, tc := range []struct {
		name  string
		items []float64
		shift int // -1: stays wide
	}{
		{"ends-254", []float64{0, 0, 254, 254, 17, 100, 3, 201}, 8},
		{"ends-255", []float64{0, 0, 255, 255, 17, 100, 3, 201}, -1},
		{"one-odd-code", []float64{0, 0, 254, 254, 17, 100, 3, 1.0 / 256}, -1},
	} {
		build := func() *Tree[float64] {
			tree, err := New(tc.items, metric.NewCounter(line), Options{LeafCapacity: 13, Build: Build{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}
		if tc.shift < 0 {
			if tree := build(); tree.narrow != nil || tree.Shape().FilterBytes != 2*tree.codes() {
				t.Errorf("%s: %d byte codes at shift %d, want 16-bit codes", tc.name, len(tree.narrow), tree.shift)
			}
			continue
		}
		queries := []float64{-3, 0, 1, 127, 253.5, 254, 300}
		enc := func(x float64) ([]byte, error) { return codec.EncodeVector([]float64{x}) }
		tree := checkTwins(t, tc.name, enc, twinRequests(queries, []float64{0, 1, 50, 300}, []int{1, 3, 9}), build)
		if int(tree.shift) != tc.shift || slices.Max(tree.narrow) != narrowTop {
			t.Errorf("%s: shift %d, largest byte %d; want %d, %d", tc.name, tree.shift, slices.Max(tree.narrow), tc.shift, narrowTop)
		}
	}
	// The word fixture of TestIntegerMetricIdenticalToFloat64Leaves loads
	// narrow, and its Save → Load → Save is byte-stable.
	t.Run("fixture", func(t *testing.T) {
		stream, err := os.ReadFile("testdata/pr22_words_m3k20p5.mvp")
		if err != nil {
			t.Fatal(err)
		}
		load := func(b []byte) *Tree[string] {
			tree, err := Load(bytes.NewReader(b), metric.NewCounter(metric.Edit), codec.DecodeString)
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}
		tree := checkTwins(t, "the word fixture", codec.EncodeString, twinRequests(queries[2:], []float64{0, 1, 2}, []int{1, 10}), func() *Tree[string] { return load(stream) })
		var first, second bytes.Buffer
		if err := tree.Save(&first, codec.EncodeString); err != nil {
			t.Fatal(err)
		}
		if err := load(first.Bytes()).Save(&second, codec.EncodeString); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save -> Load -> Save of the narrow fixture changed the stream")
		}
	})
}

// TestNarrowShift pins the byte rule on the codes alone.
func TestNarrowShift(t *testing.T) {
	for _, tc := range []struct {
		codes []uint16
		shift uint8
		ok    bool
	}{
		{nil, 0, true},
		{[]uint16{0, 0}, 0, true},
		{[]uint16{254, 2, 0}, 0, true},
		{[]uint16{254, 3}, 0, false},          // odd: slack
		{[]uint16{256, 2}, 1, true},           // 256 > narrowTop
		{[]uint16{254 << 8, 1 << 8}, 8, true}, // the largest on narrowTop
		{[]uint16{255 << 8, 2 << 8}, 9, false},
		{[]uint16{topCode, 1024}, 9, false},
		{[]uint16{65024, 512}, 8, true},
		{[]uint16{0, idleCode}, 9, false},
	} {
		if shift, ok := sumOf(tc.codes).shift(); shift != tc.shift || ok != tc.ok {
			t.Errorf("the shift of %v = %d, %v; want %d, %v", tc.codes, shift, ok, tc.shift, tc.ok)
		}
	}
}

// TestValidateChecksNarrowArena: a byte past narrowTop, or one whose wide
// code is odd, is a corrupt narrow arena.
func TestValidateChecksNarrowArena(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(39, 3)), 200, dataset.WordOptions{MinLen: 3, MaxLen: 8})
	for _, fault := range []func(tr *Tree[string]){
		func(tr *Tree[string]) { tr.narrow[0] = narrowTop + 1 },
		func(tr *Tree[string]) { tr.narrow[0] |= 1; tr.shift = 0 },
		func(tr *Tree[string]) { tr.shift = 15 },
	} {
		tree, err := New(words, metric.NewCounter(metric.Edit), Options{Build: Build{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if tree.narrow == nil {
			t.Fatal("a word tree kept 16-bit codes")
		}
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		fault(tree)
		if err := tree.Validate(); err == nil {
			t.Errorf("Validate accepted a corrupt narrow arena")
		}
	}
}
