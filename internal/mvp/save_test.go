package mvp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
	"mvptree/internal/wire"
)

func encodeID(id int) ([]byte, error) {
	return []byte{byte(id), byte(id >> 8), byte(id >> 16)}, nil
}

func decodeID(b []byte) (int, error) {
	if len(b) != 3 {
		return 0, errors.New("bad id encoding")
	}
	return int(b[0]) | int(b[1])<<8 | int(b[2])<<16, nil
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 3))
	w := testutil.NewVectorWorkload(rng, 700, 8, 10, metric.L2)
	for _, opts := range optionMatrix {
		orig, c := buildWorkloadTree(t, w, opts)
		var buf bytes.Buffer
		if err := orig.Save(&buf, encodeID); err != nil {
			t.Fatalf("Save: %v", err)
		}
		loaded, err := Load(&buf, c, decodeID)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if loaded.Len() != orig.Len() {
			t.Fatalf("Len = %d, want %d", loaded.Len(), orig.Len())
		}
		if loaded.Vantages() != orig.Vantages() || loaded.Partitions() != orig.Partitions() ||
			loaded.LeafCapacity() != orig.LeafCapacity() || loaded.PathLength() != orig.PathLength() {
			t.Fatal("parameters changed across save/load")
		}
		// The loaded tree must answer every query identically and
		// satisfy all structural invariants.
		testutil.CheckRange(t, "loaded-mvpt", loaded, w, []float64{0, 0.2, 0.6, 1.5})
		testutil.CheckKNN(t, "loaded-mvpt", loaded, w, []int{1, 5, 50})
		checkNode(t, loaded, 0, w.Dist, nil)
	}
}

func TestSaveLoadIdenticalQueryCosts(t *testing.T) {
	// Loading must reproduce the exact same structure: identical
	// distance computations per query, not just identical answers.
	rng := rand.New(rand.NewPCG(72, 3))
	w := testutil.NewVectorWorkload(rng, 500, 6, 8, metric.L2)
	eachV(t, Options{Partitions: 3, LeafCapacity: 9, PathLength: 5, Build: Build{Seed: 3}}, func(t *testing.T, opts Options) {
		orig, c := buildWorkloadTree(t, w, opts)
		var buf bytes.Buffer
		if err := orig.Save(&buf, encodeID); err != nil {
			t.Fatal(err)
		}
		c2 := metric.NewCounter(w.Dist)
		loaded, err := Load(&buf, c2, decodeID)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			c.Reset()
			orig.Range(q, 0.4)
			c2.Reset()
			loaded.Range(q, 0.4)
			if c.Count() != c2.Count() {
				t.Fatalf("query cost differs after reload: %d vs %d", c.Count(), c2.Count())
			}
		}
	})
}

func TestSaveLoadEmptyAndTiny(t *testing.T) {
	dist := metric.NewCounter(metric.Discrete[int]())
	for n := 0; n <= 4; n++ {
		orig, err := New(testutil.IDs(n), dist, Options{LeafCapacity: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := orig.Save(&buf, encodeID); err != nil {
			t.Fatalf("n=%d: Save: %v", n, err)
		}
		loaded, err := Load(&buf, dist, decodeID)
		if err != nil {
			t.Fatalf("n=%d: Load: %v", n, err)
		}
		if got := loaded.Range(0, 2); len(got) != n {
			t.Errorf("n=%d: loaded full range = %d items", n, len(got))
		}
	}
}

func TestLoadRejectsCorruptStreams(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 3))
	w := testutil.NewVectorWorkload(rng, 100, 4, 1, metric.L2)
	eachV(t, Options{Build: Build{Seed: 1}}, func(t *testing.T, opts Options) {
		orig, c := buildWorkloadTree(t, w, opts)
		var buf bytes.Buffer
		if err := orig.Save(&buf, encodeID); err != nil {
			t.Fatal(err)
		}
		valid := buf.Bytes()

		cases := map[string][]byte{
			"empty":       {},
			"bad magic":   append([]byte{8}, []byte("NOTMVPTR")...),
			"truncated":   valid[:len(valid)/2],
			"one byte":    valid[:1],
			"flipped tag": flipByte(valid, len(valid)-1),
			// Any single corrupted payload byte is caught by the checksum.
			"flipped header": flipByte(valid, 20),
			"flipped middle": flipByte(valid, len(valid)/2),
			"flipped late":   flipByte(valid, len(valid)-10),
		}
		for name, data := range cases {
			if _, err := Load(bytes.NewReader(data), c, decodeID); err == nil {
				t.Errorf("%s: Load succeeded on corrupt data", name)
			}
		}
	})
}

// TestLoadRejectsBadCutoffs: behind a valid checksum, a row of cutoffs
// that is not distances in ascending order — which would put points
// outside every shell the search looks in — is a corrupt stream, where it
// used to load as a tree that answers wrongly. Each payload is one
// internal node over no children, and is checked in as a seed of FuzzLoad
// (which seals it under every magic) so the fuzz smoke starts from them.
func TestLoadRejectsBadCutoffs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, c := range map[string]struct {
		cut1 []float64
		cut2 [][]float64
		ok   bool
	}{
		"cutoffs-ascending": {[]float64{2, 4}, [][]float64{{1, 2}, {1, 1}, {0, inf}}, true},
		"cut1-nan":          {[]float64{2, nan}, [][]float64{{1, 2}, {1, 1}, {0, inf}}, false},
		"cut1-negative":     {[]float64{-2, 4}, [][]float64{{1, 2}, {1, 1}, {0, inf}}, false},
		"cut1-descending":   {[]float64{4, 2}, [][]float64{{1, 2}, {1, 1}, {0, inf}}, false},
		"cut2-nan":          {[]float64{2, 4}, [][]float64{{1, 2}, {nan, 1}, {0, inf}}, false},
		"cut2-negative":     {[]float64{2, 4}, [][]float64{{1, 2}, {1, 1}, {-1, inf}}, false},
		"cut2-descending":   {[]float64{2, 4}, [][]float64{{2, 1}, {1, 1}, {0, inf}}, false},
	} {
		payload := testutil.Payload(func(w *wire.Writer) {
			for _, x := range []int{3, 4, 2, 2, -minStepExp, 2} { // m, k, p, n, step 2⁰, v
				w.Int(x)
			}
			w.Byte(tagInternal)
			w.Bytes([]byte("sv1"))
			w.Bytes([]byte("sv2"))
			w.Floats(c.cut1)
			w.Int(len(c.cut2))
			for _, row := range c.cut2 {
				w.Floats(row)
				w.Int(len(row) + 1)
				for range len(row) + 1 {
					w.Byte(tagNil)
				}
			}
		})
		_, err := Load(bytes.NewReader(testutil.Seal(loadMagicV3, payload)), metric.NewCounter(metric.Edit),
			func(b []byte) (string, error) { return string(b), nil })
		if c.ok != (err == nil) || err != nil && !strings.Contains(err.Error(), "corrupt stream") {
			t.Errorf("%s: Load: %v", name, err)
		}
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", payload)
		if got, _ := os.ReadFile("testdata/fuzz/FuzzLoad/" + name); string(got) != seed {
			t.Errorf("testdata/fuzz/FuzzLoad/%s is not this payload's seed:\n%s", name, seed)
		}
	}
}

// TestSaveLoadSaveByteStable: what Save writes loads as a tree that saves
// as the same bytes, at both v, over vectors and over words.
func TestSaveLoadSaveByteStable(t *testing.T) {
	vecs := testutil.RandomVectors(rand.New(rand.NewPCG(75, 3)), 400, 5)
	words := dataset.Words(rand.New(rand.NewPCG(75, 4)), 400, dataset.WordOptions{})
	eachV(t, Options{Partitions: 3, LeafCapacity: 9, PathLength: 5, Build: Build{Seed: 5}}, func(t *testing.T, opts Options) {
		checkByteStable(t, vecs, metric.L2, codec.EncodeVector, codec.DecodeVector, opts)
		checkByteStable(t, words, metric.Edit, codec.EncodeString, codec.DecodeString, opts)
	})
}

func checkByteStable[T any](t *testing.T, items []T, dist metric.DistanceFunc[T], enc ItemEncoder[T], dec ItemDecoder[T], opts Options) {
	t.Helper()
	tree, err := New(items, metric.NewCounter(dist), opts)
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := tree.Save(&first, enc); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()), metric.NewCounter(dist), dec)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&second, enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) || loaded.Height() != tree.Height() || loaded.Shape() != tree.Shape() {
		t.Errorf("Save → Load → Save: %d bytes became %d, height %d became %d", first.Len(), second.Len(), tree.Height(), loaded.Height())
	}
}

// TestLoadRejectsArenaFaults: the streams testutil.ArenaFaults makes of an
// MVPTREE4 stream — cut at each arena boundary, counts announced past the
// arenas, a child of two parents, rows past their arena, a bad trailer —
// are refused as corrupt, allocating no more than the stream's bytes and
// a buffer.
func TestLoadRejectsArenaFaults(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(76, 3)), 120, dataset.WordOptions{})
	eachV(t, Options{Partitions: 2, LeafCapacity: 5, PathLength: 3, Build: Build{Seed: 1}}, func(t *testing.T, opts Options) {
		tree, err := New(words, metric.NewCounter(metric.Edit), opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf, codec.EncodeString); err != nil {
			t.Fatal(err)
		}
		for name, stream := range testutil.ArenaFaults(buf.Bytes()) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(bytes.NewReader(stream), metric.NewCounter(metric.Edit), codec.DecodeString)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "corrupt stream") {
				t.Errorf("%s: Load: %v", name, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(4*len(stream)+64<<10) {
				t.Errorf("%s: Load allocated %d bytes for a %d-byte stream", name, got, len(stream))
			}
		}
	})
}

// TestLoadNamesRetiredVPStream: a stream internal/vptree saved while it
// was a tree of its own (PR 19's bytes) is refused by name — not as a bad
// magic — without reading past the magic.
func TestLoadNamesRetiredVPStream(t *testing.T) {
	old, err := os.ReadFile("testdata/pr19_vptree1.vp")
	if err != nil {
		t.Fatal(err)
	}
	load := func() error {
		_, err := Load(bytes.NewReader(old), metric.NewCounter(metric.L2), codec.DecodeVector)
		return err
	}
	if err := load(); !errors.Is(err, errRetiredVP) || !strings.Contains(err.Error(), "VPTREE1") || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("Load of a VPTREE1 stream: %v", err)
	}
	// The reader, the counter and the magic's seven bytes: nothing sized by the stream.
	if allocs := testing.AllocsPerRun(20, func() { _ = load() }); !testutil.RaceEnabled && allocs > 8 {
		t.Errorf("refusing a VPTREE1 stream allocated %.0f times", allocs)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

func TestEncoderErrorsPropagate(t *testing.T) {
	dist := metric.NewCounter(metric.Discrete[int]())
	tree, err := New(testutil.IDs(10), dist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	boom := errors.New("boom")
	if err := tree.Save(&buf, func(int) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("Save error = %v, want wrapped boom", err)
	}
	// Decoder failure on load.
	buf.Reset()
	if err := tree.Save(&buf, encodeID); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, dist, func([]byte) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Errorf("Load error = %v, want wrapped boom", err)
	}
}

func TestSaveLoadVectorsViaCodec(t *testing.T) {
	rng := rand.New(rand.NewPCG(74, 3))
	vecs := testutil.RandomVectors(rng, 300, 6)
	c := metric.NewCounter(metric.L2)
	orig, err := New(vecs, c, Options{Partitions: 2, LeafCapacity: 8, PathLength: 3, Build: Build{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf, codec.EncodeVector); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, metric.NewCounter(metric.L2), codec.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	q := vecs[7]
	a := orig.KNN(q, 5)
	b := loaded.KNN(q, 5)
	for i := range a {
		if a[i].Dist != b[i].Dist {
			t.Fatalf("KNN differs after reload: %v vs %v", a[i], b[i])
		}
	}
}

// BenchmarkSave times Save to io.Discard of one tree per filter width:
// 20 000 uniform vectors in 16-bit codes, words past 15 letters in bytes,
// and short words in nibble rows. Save reads every width's codes through
// wideRows, so the rows differ in the widening and nothing else; B/op is
// the write buffer, the widening buffer and the encoded items.
func BenchmarkSave(b *testing.B) {
	const n = 20000
	opts := Options{Build: Build{Seed: 1}}
	vectors, err := New(dataset.UniformVectors(rand.New(rand.NewPCG(47, 2)), n, 20), metric.NewCounter(metric.L2), opts)
	if err != nil {
		b.Fatal(err)
	}
	benchSave(b, "vectors/wide", vectors, codec.EncodeVector)
	for _, tc := range []struct {
		name  string
		words dataset.WordOptions
	}{{"words/bytes", dataset.WordOptions{MinLen: 16, MaxLen: 30}}, {"words/nibbles", dataset.WordOptions{}}} {
		tree, err := New(dataset.Words(rand.New(rand.NewPCG(47, 3)), n, tc.words), metric.NewCounter(metric.Edit), opts)
		if err != nil {
			b.Fatal(err)
		}
		if inBytes := tc.name == "words/bytes"; inBytes && tree.narrow == nil || !inBytes && tree.nibbles == nil {
			b.Fatalf("%s: the tree's filter is %d bytes for %d codes", tc.name, tree.Shape().FilterBytes, tree.codes())
		}
		benchSave(b, tc.name, tree, codec.EncodeString)
	}
}

func benchSave[T any](b *testing.B, name string, tree *Tree[T], enc ItemEncoder[T]) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := tree.Save(io.Discard, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
