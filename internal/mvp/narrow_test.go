package mvp

// Tests of the narrow filter arenas (fixed.go, Tree.settle): a tree whose
// codes a nibble holds exactly, in rows of at most nibbleCols codes, keeps
// each row in a uint32, one whose codes a byte holds exactly keeps them in
// bytes, and nothing either answers, counts or writes differs from the
// same tree kept in 16-bit codes.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
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
// the two alike: the narrow one holds a nibble row a leaf item (nibbles)
// or else a byte a code, they answer reqs alike (wideDiff) and their Save
// bytes are the same.
func checkTwins[T any](t *testing.T, name string, enc ItemEncoder[T], reqs []index.Query[T], nibbles bool, build func() *Tree[T]) *Tree[T] {
	t.Helper()
	narrow, wide := build(), build()
	wide.Widen()
	if nibbles != (narrow.nibbles != nil) || !nibbles && narrow.narrow == nil || narrow.filter != nil || wide.narrow != nil || wide.nibbles != nil {
		t.Fatalf("%s: the built tree holds %d nibble rows, %d byte codes and %d wide ones; want nibble rows %v, else bytes",
			name, len(narrow.nibbles), len(narrow.narrow), len(narrow.filter), nibbles)
	}
	want := narrow.codes()
	if nibbles {
		want = 4 * narrow.Shape().LeafItems
	}
	if got := narrow.Shape().FilterBytes; got != want || wide.Shape().FilterBytes != 2*narrow.codes() {
		t.Fatalf("%s: FilterBytes %d narrow and %d wide, for %d codes", name, got, wide.Shape().FilterBytes, narrow.codes())
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
	// Words of at most 10 letters are nibble rows up to p = 6; at p = 7 a
	// leaf deep enough holds 9 codes a row, and words past 15 letters have
	// distances a nibble cannot hold: those two stay in bytes.
	long := dataset.Words(rand.New(rand.NewPCG(39, 2)), 400, dataset.WordOptions{MinLen: 16, MaxLen: 30, MisspellingsPer: 3})
	t.Run("words", func(t *testing.T) {
		reqs := twinRequests(queries, []float64{0, 1, 2, 4}, []int{1, 7, 40})
		for _, tc := range []struct {
			words       []string
			m, k, p     int
			nibbles     bool
			description string
		}{
			{words, 3, 20, -1, true, "short"},
			{words, 3, 20, 5, true, "short"},
			{words, 2, 4, 6, true, "short, deep"},
			{words, 2, 4, 7, false, "short, deep"},
			{long, 3, 20, 5, false, "long"},
		} {
			for _, v := range []int{1, 2} {
				for _, workers := range []int{1, 3} {
					opts := Options{Vantages: v, Partitions: tc.m, LeafCapacity: tc.k, PathLength: tc.p, Build: Build{Seed: 5, Workers: workers}}
					name := fmt.Sprintf("%s words v=%d m=%d k=%d p=%d workers=%d", tc.description, v, tc.m, tc.k, tc.p, workers)
					tree := checkTwins(t, name, codec.EncodeString, reqs, tc.nibbles, func() *Tree[string] {
						tree, err := New(tc.words, metric.NewCounter(metric.Edit), opts)
						if err != nil {
							t.Fatal(err)
						}
						return tree
					})
					if tc.p == 7 && tree.Shape().MaxPathLen != 7 {
						t.Fatalf("%s: no leaf holds 7 PATH entries", name)
					}
				}
			}
		}
	})
	t.Run("hamming-and-discrete", func(t *testing.T) {
		reqs := twinRequests(queries, []float64{0, 1, 3}, []int{1, 10})
		opts := Options{Partitions: 2, LeafCapacity: 13, PathLength: 4, Build: Build{Seed: 3}}
		for name, dist := range map[string]metric.DistanceFunc[string]{"hamming": metric.Hamming, "discrete": metric.Discrete[string]()} {
			checkTwins(t, name, codec.EncodeString, reqs, true, func() *Tree[string] {
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
	// 15 the codes are whole distances times 2^12: nibbles at that shift,
	// the largest on nibbleTop. At 16 and at 254 the largest needs a
	// nibble shift of 12 too, which the code of an odd distance (times
	// 2^11, times 2^8) is no multiple of: bytes, at shift 8, the largest
	// at 254 on narrowTop. At 255 the largest needs a byte shift of 9,
	// which 255·2^8 is no multiple of, and an end 2^-8 from 0 puts odd
	// codes in the rows: those two keep 16 bits.
	line := func(a, b float64) float64 { return math.Abs(a - b) }
	for _, tc := range []struct {
		name  string
		items []float64
		shift int // -1: stays wide
		cells string
		top   int // the largest nibble or byte
	}{
		{"ends-15", []float64{0, 0, 15, 15, 3, 10, 7, 1}, 12, "nibbles", nibbleTop},
		{"ends-16", []float64{0, 0, 16, 16, 3, 10, 7, 1}, 8, "bytes", 128},
		{"ends-254", []float64{0, 0, 254, 254, 17, 100, 3, 201}, 8, "bytes", narrowTop},
		{"ends-255", []float64{0, 0, 255, 255, 17, 100, 3, 201}, -1, "", 0},
		{"one-odd-code", []float64{0, 0, 254, 254, 17, 100, 3, 1.0 / 256}, -1, "", 0},
	} {
		build := func() *Tree[float64] {
			tree, err := New(tc.items, metric.NewCounter(line), Options{LeafCapacity: 13, Build: Build{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}
		if tc.shift < 0 {
			if tree := build(); tree.narrow != nil || tree.nibbles != nil || tree.Shape().FilterBytes != 2*tree.codes() {
				t.Errorf("%s: %d byte codes and %d nibble rows at shift %d, want 16-bit codes", tc.name, len(tree.narrow), len(tree.nibbles), tree.shift)
			}
			continue
		}
		queries := []float64{-3, 0, 1, 7.5, 15, 127, 253.5, 254, 300}
		enc := func(x float64) ([]byte, error) { return codec.EncodeVector([]float64{x}) }
		tree := checkTwins(t, tc.name, enc, twinRequests(queries, []float64{0, 1, 50, 300}, []int{1, 3, 9}), tc.cells == "nibbles", build)
		var sum codeSum
		for rows := range tree.leaves() {
			sum = sum.add(sumOf(rows))
		}
		if top := int(sum.top >> tree.shift); int(tree.shift) != tc.shift || top != tc.top {
			t.Errorf("%s: shift %d, largest %s %d; want %d, %d", tc.name, tree.shift, tc.cells, top, tc.shift, tc.top)
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
		tree := checkTwins(t, "the word fixture", codec.EncodeString, twinRequests(queries[2:], []float64{0, 1, 2}, []int{1, 10}), true, func() *Tree[string] { return load(stream) })
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
		if shift, ok := sumOf(tc.codes).shift(narrowTop); shift != tc.shift || ok != tc.ok {
			t.Errorf("the shift of %v = %d, %v; want %d, %v", tc.codes, shift, ok, tc.shift, tc.ok)
		}
	}
}

// TestNibbleShift pins the nibble rule's shifts on the codes alone, beside
// the byte rule's.
func TestNibbleShift(t *testing.T) {
	for _, tc := range []struct {
		codes []uint16
		shift uint8
		ok    bool
	}{
		{nil, 0, true},
		{[]uint16{0, 0}, 0, true},
		{[]uint16{14, 2, 0}, 0, true},
		{[]uint16{15, 2}, 0, false},             // odd: slack
		{[]uint16{16, 2}, 1, true},              // 16 > nibbleTop
		{[]uint16{30, 4}, 1, true},              // 30>>1 on nibbleTop
		{[]uint16{32, 4}, 2, true},              // 32>>1 is past it
		{[]uint16{15 << 12, 1 << 12}, 12, true}, // edit distances 15 and 1 on their grid
		{[]uint16{15 << 12, 1 << 11}, 12, false},
		{[]uint16{16 << 11, 3 << 11}, 12, false}, // 16 at the step of 16: a byte's, not a nibble's
		{[]uint16{254 << 8, 1 << 8}, 12, false},
		{[]uint16{topCode, 1 << 12}, 12, false},
		{[]uint16{0, idleCode}, 12, false},
	} {
		if shift, ok := sumOf(tc.codes).shift(nibbleTop); shift != tc.shift || ok != tc.ok {
			t.Errorf("the nibble shift of %v = %d, %v; want %d, %v", tc.codes, shift, ok, tc.shift, tc.ok)
		}
	}
}

// TestValidateChecksNarrowArena: a byte past narrowTop, a byte or nibble
// whose wide code is odd or past topCode, a nibble past a row's stride
// that is not zero, or a shift no code was made at, is a corrupt narrow
// arena.
func TestValidateChecksNarrowArena(t *testing.T) {
	short := dataset.Words(rand.New(rand.NewPCG(39, 3)), 200, dataset.WordOptions{MinLen: 3, MaxLen: 8})
	long := dataset.Words(rand.New(rand.NewPCG(39, 3)), 200, dataset.WordOptions{MinLen: 16, MaxLen: 30})
	for _, tc := range []struct {
		words   []string
		nibbles bool
		fault   func(tr *Tree[string])
	}{
		{long, false, func(tr *Tree[string]) { tr.narrow[0] = narrowTop + 1 }},
		{long, false, func(tr *Tree[string]) { tr.narrow[0] |= 1; tr.shift = 0 }},
		{long, false, func(tr *Tree[string]) { tr.shift = 15 }},
		{short, true, func(tr *Tree[string]) { tr.nibbles[0] |= 1; tr.shift = 0 }},    // odd
		{short, true, func(tr *Tree[string]) { tr.nibbles[0] |= 0xf; tr.shift = 13 }}, // 15<<13 past topCode
		{short, true, func(tr *Tree[string]) { tr.nibbles[0] |= 1 << 28 }},            // a pad nibble: rows of 2+4 codes
		{short, true, func(tr *Tree[string]) { tr.shift-- }},                          // every code halved
	} {
		tree, err := New(tc.words, metric.NewCounter(metric.Edit), Options{Build: Build{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if (tree.nibbles != nil) != tc.nibbles || tree.narrow == nil && !tc.nibbles {
			t.Fatalf("a word tree holds %d nibble rows and %d byte codes, want nibble rows %v, else bytes", len(tree.nibbles), len(tree.narrow), tc.nibbles)
		}
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		tc.fault(tree)
		if err := tree.Validate(); err == nil {
			t.Errorf("Validate accepted a corrupt narrow arena (nibble rows %v)", tc.nibbles)
		}
	}
}
