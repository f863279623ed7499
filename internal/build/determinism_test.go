package build_test

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mvptree/internal/balltree"
	"mvptree/internal/bktree"
	"mvptree/internal/build"
	"mvptree/internal/codec"
	"mvptree/internal/gmvp"
	"mvptree/internal/gnat"
	"mvptree/internal/laesa"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/vptree"
)

func vectors(n, dim int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 99))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		out[i] = v
	}
	return out
}

func words(n int, seed uint64) []string {
	rng := rand.New(rand.NewPCG(seed, 98))
	out := make([]string, n)
	for i := range out {
		b := make([]byte, 3+rng.IntN(6))
		for j := range b {
			b[j] = byte('a' + rng.IntN(6))
		}
		out[i] = string(b)
	}
	return out
}

// buildCase builds one structure at the given worker count and returns
// its Save bytes (nil buf means the structure is compared by shape
// instead) plus its construction stats.
type buildCase struct {
	name string
	// build returns the serialized bytes of the structure (or a
	// reflect.DeepEqual-comparable representation for the structures
	// without Save) plus the construction stats.
	build func(t *testing.T, workers int) (any, build.Stats)
}

func determinismCases() []buildCase {
	items := vectors(800, 8, 7)
	ws := words(500, 7)
	opt := func(workers int) build.Options { return build.Options{Workers: workers, Seed: 42} }
	return []buildCase{
		{name: "mvp", build: func(t *testing.T, workers int) (any, build.Stats) {
			tr, st, err := mvp.NewWithStats(items, metric.NewCounter(metric.L2), mvp.Options{
				Partitions: 3, LeafCapacity: 20, PathLength: 4, Build: opt(workers),
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tr.Save(&buf, codec.EncodeVector); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), st
		}},
		// Edit distance over short words takes a handful of values, so
		// nearly every split is decided among equal distances.
		{name: "mvp-words", build: func(t *testing.T, workers int) (any, build.Stats) {
			tr, st, err := mvp.NewWithStats(ws, metric.NewCounter(metric.Edit), mvp.Options{
				Partitions: 3, LeafCapacity: 8, PathLength: 4, Build: opt(workers),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tr.Save(&buf, codec.EncodeString); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), st
		}},
		{name: "vptree", build: func(t *testing.T, workers int) (any, build.Stats) {
			tr, st, err := vptree.NewWithStats(items, metric.NewCounter(metric.L2), vptree.Options{
				Order: 3, LeafCapacity: 4, Build: opt(workers),
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tr.Save(&buf, codec.EncodeVector); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), st
		}},
		// The comparison structures have no Save; compare by the answers
		// they give — a full range scan at several radii pins the tree
		// shape tightly (same partitions, same pivots).
		{name: "gmvp", build: func(t *testing.T, workers int) (any, build.Stats) {
			tr, st, err := gmvp.NewWithStats(items, metric.NewCounter(metric.L2), gmvp.Options{
				Vantages: 3, Partitions: 2, LeafCapacity: 20, PathLength: 4, Build: opt(workers),
			})
			if err != nil {
				t.Fatal(err)
			}
			return rangeFingerprint(tr, items, vectorRadii), st
		}},
		{name: "laesa", build: func(t *testing.T, workers int) (any, build.Stats) {
			tb, st, err := laesa.NewWithStats(items, metric.NewCounter(metric.L2), laesa.Options{
				Pivots: 16, Build: opt(workers),
			})
			if err != nil {
				t.Fatal(err)
			}
			return rangeFingerprint(tb, items, vectorRadii), st
		}},
		{name: "bktree", build: func(t *testing.T, workers int) (any, build.Stats) {
			tr, st, err := bktree.NewWithStats(ws, metric.NewCounter(metric.Edit), bktree.Options{
				Build: opt(workers),
			})
			if err != nil {
				t.Fatal(err)
			}
			return rangeFingerprint(tr, ws, []float64{1, 2, 4}), st
		}},
		{name: "gnat", build: func(t *testing.T, workers int) (any, build.Stats) {
			tr, st, err := gnat.NewWithStats(items, metric.NewCounter(metric.L2), gnat.Options{
				Degree: 6, LeafCapacity: 8, Build: opt(workers),
			})
			if err != nil {
				t.Fatal(err)
			}
			return rangeFingerprint(tr, items, vectorRadii), st
		}},
		{name: "balltree", build: func(t *testing.T, workers int) (any, build.Stats) {
			tr, st, err := balltree.NewWithStats(items, metric.NewCounter(metric.L2), balltree.Options{
				Fanout: 6, LeafCapacity: 8, Build: opt(workers),
			})
			if err != nil {
				t.Fatal(err)
			}
			return rangeFingerprint(tr, items, vectorRadii), st
		}},
	}
}

// ranger is the query surface shared by the non-serializable trees.
type ranger[T any] interface {
	Range(q T, r float64) []T
	Counter() *metric.Counter[T]
}

var vectorRadii = []float64{0.3, 0.6, 0.9}

// rangeFingerprint captures result ORDER as well as content (result
// order follows traversal order, which follows tree shape) plus the
// exact number of distance computations spent answering, so two trees
// fingerprinting equal are the same tree for every practical purpose.
func rangeFingerprint[T any](tr ranger[T], items []T, radii []float64) any {
	type answer struct {
		Results []T
		Cost    int64
	}
	var fp []answer
	for qi := 0; qi < 5; qi++ {
		for _, r := range radii {
			before := tr.Counter().Count()
			res := tr.Range(items[qi*37], r)
			fp = append(fp, answer{Results: res, Cost: tr.Counter().Count() - before})
		}
	}
	return fp
}

// TestWorkerCountInvariance is the tentpole guarantee: the index built
// with Workers=1 and with 2, 4 and 8 is identical — same Save bytes where
// the structure serializes, same traversal fingerprint where it does
// not — and the distance-computation count, node count and depth agree
// exactly.
func TestWorkerCountInvariance(t *testing.T) {
	for _, tc := range determinismCases() {
		t.Run(tc.name, func(t *testing.T) {
			serial, sStats := tc.build(t, 1)
			if sStats.Distances <= 0 {
				t.Errorf("%s: build made no distance computations", tc.name)
			}
			for _, workers := range []int{2, 4, 8} {
				parallel, pStats := tc.build(t, workers)
				if sb, ok := serial.([]byte); ok {
					if !bytes.Equal(sb, parallel.([]byte)) {
						t.Fatalf("%s: Workers=1 and Workers=%d Save bytes differ (%d vs %d bytes)",
							tc.name, workers, len(sb), len(parallel.([]byte)))
					}
				} else if !reflect.DeepEqual(serial, parallel) {
					t.Fatalf("%s: Workers=1 and Workers=%d trees answer differently", tc.name, workers)
				}
				if sStats.Workers != 1 || pStats.Workers != workers {
					t.Errorf("%s: Stats.Workers = %d/%d, want 1/%d", tc.name, sStats.Workers, pStats.Workers, workers)
				}
				sStats.Wall, pStats.Wall, pStats.Workers = 0, 0, 1
				if sStats != pStats {
					t.Errorf("%s: build stats %+v (serial) != %+v (Workers=%d)", tc.name, sStats, pStats, workers)
				}
			}
		})
	}
}

// TestParallelBuildsRace exercises every structure's parallel build
// path concurrently; its value is under `go test -race`, where any
// unsynchronized access in Measure/Fork/Node is reported.
func TestParallelBuildsRace(t *testing.T) {
	cases := determinismCases()
	var wg sync.WaitGroup
	for _, tc := range cases {
		wg.Add(1)
		go func(tc buildCase) {
			defer wg.Done()
			tc.build(t, 8)
		}(tc)
	}
	wg.Wait()
}

// TestValidationErrors table-tests the uniform option-validation
// surface: every structure rejects a negative worker count and its
// non-positive structural parameters (degree, fanout, leaf capacity,
// pivot count, ...) with an error naming the package. Zero values are
// the documented "use the default" convention and must NOT error; only
// genuinely out-of-range values may.
func TestValidationErrors(t *testing.T) {
	items := vectors(32, 4, 1)
	ws := words(32, 1)
	bad := build.Options{Workers: -1}
	c := func() *metric.Counter[[]float64] { return metric.NewCounter(metric.L2) }
	cases := []struct {
		name string
		pkg  string
		err  error
	}{
		{"mvp/workers", "mvp", func() error {
			_, err := mvp.New(items, c(), mvp.Options{Build: bad})
			return err
		}()},
		{"mvp/partitions", "mvp", func() error {
			_, err := mvp.New(items, c(), mvp.Options{Partitions: 1})
			return err
		}()},
		{"mvp/leafcap", "mvp", func() error {
			_, err := mvp.New(items, c(), mvp.Options{LeafCapacity: -2})
			return err
		}()},
		{"mvp/vantages", "mvp", func() error {
			_, err := mvp.New(items, c(), mvp.Options{Vantages: 3})
			return err
		}()},
		{"vptree/workers", "vptree", func() error {
			_, err := vptree.New(items, c(), vptree.Options{Build: bad})
			return err
		}()},
		{"vptree/order", "vptree", func() error {
			_, err := vptree.New(items, c(), vptree.Options{Order: 1})
			return err
		}()},
		{"vptree/leafcap", "vptree", func() error {
			_, err := vptree.New(items, c(), vptree.Options{LeafCapacity: -1})
			return err
		}()},
		{"gmvp/workers", "gmvp", func() error {
			_, err := gmvp.New(items, c(), gmvp.Options{Build: bad})
			return err
		}()},
		{"gmvp/vantages", "gmvp", func() error {
			_, err := gmvp.New(items, c(), gmvp.Options{Vantages: -1})
			return err
		}()},
		{"gmvp/partitions", "gmvp", func() error {
			_, err := gmvp.New(items, c(), gmvp.Options{Partitions: 1})
			return err
		}()},
		{"gmvp/leafcap", "gmvp", func() error {
			_, err := gmvp.New(items, c(), gmvp.Options{LeafCapacity: -1})
			return err
		}()},
		{"gnat/workers", "gnat", func() error {
			_, err := gnat.New(items, c(), gnat.Options{Build: bad})
			return err
		}()},
		{"gnat/degree", "gnat", func() error {
			_, err := gnat.New(items, c(), gnat.Options{Degree: 1})
			return err
		}()},
		{"gnat/leafcap", "gnat", func() error {
			_, err := gnat.New(items, c(), gnat.Options{LeafCapacity: -1})
			return err
		}()},
		{"gnat/candidatefactor", "gnat", func() error {
			_, err := gnat.New(items, c(), gnat.Options{CandidateFactor: -1})
			return err
		}()},
		{"balltree/workers", "balltree", func() error {
			_, err := balltree.New(items, c(), balltree.Options{Build: bad})
			return err
		}()},
		{"balltree/fanout", "balltree", func() error {
			_, err := balltree.New(items, c(), balltree.Options{Fanout: 1})
			return err
		}()},
		{"balltree/leafcap", "balltree", func() error {
			_, err := balltree.New(items, c(), balltree.Options{LeafCapacity: -1})
			return err
		}()},
		{"laesa/workers", "laesa", func() error {
			_, err := laesa.New(items, c(), laesa.Options{Build: bad})
			return err
		}()},
		{"laesa/pivots", "laesa", func() error {
			_, err := laesa.New(items, c(), laesa.Options{Pivots: -1})
			return err
		}()},
		{"bktree/workers", "bktree", func() error {
			_, err := bktree.New(ws, metric.NewCounter(metric.Edit), bktree.Options{Build: bad})
			return err
		}()},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: invalid option accepted, want error", tc.name)
			continue
		}
		if !strings.Contains(tc.err.Error(), tc.pkg) {
			t.Errorf("%s: error %q does not name the package", tc.name, tc.err)
		}
	}
	// Zero values mean "default", never an error.
	if _, err := mvp.New(items, c(), mvp.Options{}); err != nil {
		t.Errorf("mvp: zero options rejected: %v", err)
	}
	if _, err := vptree.New(items, c(), vptree.Options{}); err != nil {
		t.Errorf("vptree: zero options rejected: %v", err)
	}
	if _, err := gnat.New(items, c(), gnat.Options{}); err != nil {
		t.Errorf("gnat: zero options rejected: %v", err)
	}
}
