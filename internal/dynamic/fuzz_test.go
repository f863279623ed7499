package dynamic

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/testutil"
	"mvptree/internal/wire"
)

func encodeWord(s string) ([]byte, error) { return []byte(s), nil }
func decodeWord(b []byte) (string, error) { return string(b), nil }

func loadWords(stream []byte) (*Store[string], error) {
	return Load(bytes.NewReader(stream), metric.Edit, decodeWord)
}

// savedWords builds a store over words and returns what Save writes.
func savedWords(tb testing.TB, words []string, opts Options) []byte {
	s, err := New(words, metric.Edit, opts)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf, encodeWord); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checksumProof is the four payloads a valid checksum used to carry past
// Load, by name; each is checked in as a seed of FuzzLoad (which seals it)
// so the fuzz smoke starts from them. The drawn build (RandomFirstVantage)
// keeps their trees, and so the seeds, out of reach of a change to
// vantage selection.
func checksumProof(tb testing.TB) map[string][]byte {
	words := []string{"ab", "abc", "b", "bcd", "cd"}
	opts := mvp.Options{Partitions: 2, LeafCapacity: 1, PathLength: 2, RandomFirstVantage: true, Build: mvp.Build{Seed: 3}}
	// header writes a payload up to its item table, as Save does.
	header := func(w *wire.Writer, count int) {
		w.Float(0.25)
		saveTreeOptions(w, opts)
		w.Uvarint(1)
		w.Int(count)
	}
	// A tree over IDs the table lacks cannot be built under the store's
	// metric; |a−b| needs no table.
	stray, err := mvp.New([]int{0, 1, 2, 3, 9}, metric.NewCounter(func(a, b int) float64 { return math.Abs(float64(a - b)) }), opts)
	if err != nil {
		tb.Fatal(err)
	}
	var strayBytes bytes.Buffer
	if err := stray.Save(&strayBytes, encodeIDItem); err != nil {
		tb.Fatal(err)
	}
	nan := testutil.PayloadOf(savedWords(tb, words, Options{Tree: opts}))
	copy(nan, testutil.Payload(func(w *wire.Writer) { w.Float(math.NaN()) })) // the fraction is the first field
	v1 := opts
	v1.Vantages = 1
	return map[string][]byte{
		// 4M items announced, none present: 68 MB allocated on its word.
		"count-beyond-payload": testutil.Payload(func(w *wire.Writer) { header(w, 1<<22) }),
		// As many tree items as the table has, one of them not in it: a
		// panic in resolve at the first query that reaches it.
		"tree-id-outside-table": testutil.Payload(func(w *wire.Writer) {
			header(w, len(words))
			for _, s := range words {
				w.Bytes([]byte(s))
			}
			w.Bytes(strayBytes.Bytes())
		}),
		// NaN is not <= 0: every update of the loaded store rebuilt it.
		"fraction-nan": nan,
		// Nothing wrong with it: a store of one-vantage trees, which loaded
		// with options that rebuild it as a two-vantage one.
		"vantages-1": testutil.PayloadOf(savedWords(tb, words, Options{Tree: v1})),
	}
}

func TestLoadRejectsWhatTheChecksumCannot(t *testing.T) {
	for name, payload := range checksumProof(t) {
		s, err := loadWords(testutil.Seal(saveMagic, payload))
		if name == "vantages-1" {
			if err != nil {
				t.Errorf("%s: Load: %v", name, err)
			} else if v := s.opts.Tree.Vantages; v != 1 {
				t.Errorf("%s: the next rebuild would have %d vantage points a node", name, v)
			}
		} else if err == nil || !strings.Contains(err.Error(), "corrupt stream") {
			t.Errorf("%s: Load: %v", name, err)
		}
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", payload)
		if got, _ := os.ReadFile("testdata/fuzz/FuzzLoad/" + name); string(got) != seed {
			t.Errorf("testdata/fuzz/FuzzLoad/%s is not this payload's seed:\n%s", name, seed)
		}
	}
}

// TestOneVantageStoreStaysOneVantage: Save → Load → Insert past the
// rebuild threshold, and the tree the store rebuilds is still v = 1.
func TestOneVantageStoreStaysOneVantage(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(103, 5)), 40, dataset.WordOptions{})
	s, err := New(words, metric.Edit, Options{Tree: mvp.Options{Vantages: 1, Partitions: 2, LeafCapacity: 4, PathLength: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf, encodeWord); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadWords(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	before := loaded.Rebuilds()
	for i := 0; loaded.Rebuilds() == before; i++ {
		if i > len(words) {
			t.Fatal("no rebuild after doubling the store")
		}
		if err := loaded.Insert(fmt.Sprint("new", i)); err != nil {
			t.Fatal(err)
		}
	}
	if v := loaded.tree.Vantages(); v != 1 {
		t.Errorf("rebuilt with %d vantage points a node, built with 1", v)
	}
	if err := loaded.tree.Validate(); err != nil {
		t.Error(err)
	}
}

// FuzzLoad feeds Load arbitrary payloads, each raw and sealed behind a
// matching CRC. Load must never panic and never allocate beyond a small
// multiple of its input; a store it returns holds exactly the items it
// reports and will rebuild with as many vantage points a node as its tree
// has; every query kind runs on it (its tree passed mvp.Load's shape
// check, but nothing says a fuzzed tree's distances are the metric's, so
// its answers are not held to anything); Save → Load keeps the items; and
// from there on — both trees built, not read — Save → Load keeps the
// answers too. Not the bytes: Save rebuilds, and each rebuild draws a new
// seed. Items decode as strings under edit distance, so any bytes are an
// item.
func FuzzLoad(f *testing.F) {
	words := dataset.Words(rand.New(rand.NewPCG(104, 5)), 60, dataset.WordOptions{MinLen: 3, MaxLen: 8, MisspellingsPer: 2})
	whole := savedWords(f, words, Options{Tree: mvp.Options{Partitions: 2, LeafCapacity: 5, PathLength: 3, Build: mvp.Build{Seed: 1}}})
	payload := testutil.PayloadOf(whole)
	f.Add(payload)
	f.Add(testutil.PayloadOf(savedWords(f, words, Options{RebuildFraction: 0.5, Tree: mvp.Options{Vantages: 1, LeafCapacity: 1}})))
	f.Add(testutil.PayloadOf(savedWords(f, nil, Options{}))) // empty
	f.Add(payload[:len(payload)/2])                          // truncated
	f.Add(whole)                                             // a whole stream: loads raw
	// testdata/fuzz/FuzzLoad holds checksumProof's payloads.

	answers := func(s *Store[string]) (out []string) {
		for _, q := range []string{"", "probe"} {
			near, far := s.Range(q, 2), s.RangeFarther(q, 4)
			slices.Sort(near)
			slices.Sort(far)
			out = append(out, fmt.Sprint(near, far, s.Search(index.KNNQuery(q, 2)).Stats.Results))
			for _, nb := range append(s.KNN(q, 3), s.KFarthest(q, 3)...) {
				out = append(out, fmt.Sprint(nb.Dist))
			}
		}
		return out
	}
	reload := func(t *testing.T, s *Store[string]) *Store[string] {
		var buf bytes.Buffer
		if err := s.Save(&buf, encodeWord); err != nil {
			t.Fatalf("Save of a loaded store: %v", err)
		}
		again, err := loadWords(buf.Bytes())
		if err != nil {
			t.Fatalf("Load of a loaded store's Save: %v", err)
		}
		return again
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, stream := range [][]byte{payload, testutil.Seal(saveMagic, payload)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := loadWords(stream)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(stream)+1<<20); got > limit {
				t.Fatalf("Load allocated %d bytes for a %d-byte stream", got, len(stream))
			}
			if err != nil {
				continue
			}
			if s.Len() != len(s.items) || s.tree.Len() != len(s.items) {
				t.Fatalf("Len %d, tree of %d, table of %d", s.Len(), s.tree.Len(), len(s.items))
			}
			if s.opts.Tree.Vantages != s.tree.Vantages() {
				t.Fatalf("options say v = %d, tree v = %d", s.opts.Tree.Vantages, s.tree.Vantages())
			}
			held := slices.Sorted(slices.Values(s.items))
			answers(s)

			second := reload(t, s)
			if got := slices.Sorted(slices.Values(second.items)); !slices.Equal(got, held) {
				t.Fatalf("Save -> Load changed the items: %q, had %q", got, held)
			}
			if got, want := answers(reload(t, second)), answers(second); !slices.Equal(got, want) {
				t.Fatalf("Save -> Load changed the answers:\n%v\n%v", got, want)
			}
		}
	})
}
