package dynamic

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strconv"
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

// seedV1 returns the payload checked in as the FuzzLoad seed name. Four
// of the five MVPDYN1 seeds — what a valid checksum once carried past
// Load — were written through that format's Save, which is gone:
// they are fixtures now, as testdata/pr18_store_v1.dyn is. The fifth,
// tree-position-repeated, is tree-id-outside-table with position 0 where
// its 9 was and the inner tree's checksum made again.
func seedV1(tb testing.TB, name string) []byte {
	file, err := os.ReadFile("testdata/fuzz/FuzzLoad/" + name)
	if err != nil {
		tb.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(strings.TrimSpace(string(file)), "go test fuzz v1\n[]byte(")
	payload, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if !ok || err != nil {
		tb.Fatalf("%s is not a one-value seed file: %v", name, err)
	}
	return []byte(payload)
}

// headerV2 writes an MVPDYN2 payload up to its tree, field by field as
// docs/FORMAT.md has it.
func headerV2(w *wire.Writer, fraction float64, o mvp.Options, v int, seq uint64) {
	w.Float(fraction)
	w.Int(o.Partitions)
	w.Int(o.LeafCapacity + 1)
	w.Int(o.PathLength + 1)
	w.Int(v)
	var flags byte
	if o.RandomSecondVantage {
		flags |= 1
	}
	if o.RandomFirstVantage {
		flags |= 2
	}
	w.Byte(flags)
	w.Uvarint(o.Seed)
	w.Uvarint(seq)
}

// checksumProof is the MVPDYN2 payloads a valid checksum does not vouch
// for, by name, with what Load must say of each ("" where it must load).
// Each is checked in as a seed of FuzzLoad (which seals it) so the fuzz
// smoke starts from them; the drawn build (RandomFirstVantage) keeps
// their tree out of reach of a change to vantage selection.
func checksumProof(tb testing.TB) map[string]struct {
	payload []byte
	refusal string
} {
	words := []string{"ab", "abc", "b", "bcd", "cd"}
	opts := mvp.Options{Partitions: 2, LeafCapacity: 1, PathLength: 2, RandomFirstVantage: true, Build: mvp.Build{Seed: 3}}
	whole := testutil.PayloadOf(savedWords(tb, words, Options{Tree: opts}))
	// One build, so one seed drawn: the next rebuild is the second.
	plain := testutil.Payload(func(w *wire.Writer) { headerV2(w, 0.25, opts, 2, 1) })
	tree, ok := bytes.CutPrefix(whole, plain)
	if !ok {
		tb.Fatalf("Save wrote the header %x, docs/FORMAT.md reads as %x", whole[:len(plain)], plain)
	}
	tree = wire.NewReader(bytes.NewReader(tree)).Bytes() // less its length
	with := func(fraction float64, o mvp.Options, v int, tree []byte) []byte {
		return testutil.Payload(func(w *wire.Writer) {
			headerV2(w, fraction, o, v, 1)
			w.Bytes(tree)
		})
	}
	bare := opts
	bare.LeafCapacity = -1
	return map[string]struct {
		payload []byte
		refusal string
	}{
		// The tree stops halfway: mvp.Load's to refuse, by the tree's own
		// checksum, behind a length and a checksum that are both right.
		"v2-truncated-tree": {with(0.25, opts, 2, tree[:len(tree)/2]), "corrupt stream"},
		// NaN is not <= 0: every update of the loaded store would rebuild it.
		"v2-fraction-nan": {with(math.NaN(), opts, 2, tree), "corrupt stream"},
		// Vantage points a node: more than a tree can have, the 0 that
		// mvp.New reads as 2, and the 1 this tree was not built with.
		"v2-vantages-3": {with(0.25, opts, 3, tree), "corrupt stream"},
		"v2-vantages-0": {with(0.25, opts, 0, tree), "corrupt stream"},
		"v2-vantages-1": {with(0.25, opts, 1, tree), "corrupt stream"},
		// k+1 = 0 beside p+1 > 0 in a header whose tree has buckets.
		"v2-no-buckets-header": {with(0.25, bare, 2, tree), "corrupt stream"},
		// Nothing wrong with it: the same header before the tree it built,
		// leaves of vantage points alone, which MVPDYN1 could not spell.
		"v2-no-buckets": {testutil.PayloadOf(savedWords(tb, words, Options{Tree: bare})), ""},
	}
}

func TestLoadRejectsWhatTheChecksumCannot(t *testing.T) {
	// The MVPDYN1 payloads: 4M items announced and none present (68 MB
	// allocated on its word); as many tree items as the table has, one of
	// them not in it (a panic at the first query that reached it), or one
	// of them twice (as many items as the table, one of them missing); a
	// NaN fraction; and a store of one-vantage trees, nothing wrong with
	// it, which loaded with options that rebuilt it as a two-vantage one.
	for _, name := range []string{"count-beyond-payload", "tree-id-outside-table", "tree-position-repeated", "fraction-nan", "vantages-1"} {
		s, err := loadWords(testutil.Seal(loadMagicV1, seedV1(t, name)))
		if name == "vantages-1" {
			if err != nil {
				t.Errorf("%s: Load: %v", name, err)
			} else if v := s.opts.Tree.Vantages; v != 1 || s.Len() != 5 {
				t.Errorf("%s: %d items, and the next rebuild would have %d vantage points a node", name, s.Len(), v)
			}
		} else if err == nil || !strings.Contains(err.Error(), "corrupt stream") {
			t.Errorf("%s: Load: %v", name, err)
		}
	}
	for name, c := range checksumProof(t) {
		s, err := loadWords(testutil.Seal(saveMagic, c.payload))
		switch {
		case c.refusal != "":
			if err == nil || !strings.Contains(err.Error(), c.refusal) {
				t.Errorf("%s: Load: %v, want a refusal saying %q", name, err, c.refusal)
			}
		case err != nil:
			t.Errorf("%s: Load: %v", name, err)
		case s.opts.Tree.LeafCapacity != -1 || s.tree.LeafCapacity() != 0 || s.Len() != 5:
			t.Errorf("%s: loaded %d items with options %+v", name, s.Len(), s.opts.Tree)
		}
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", c.payload)
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

// heldItems returns the items of a store just loaded, sorted, having
// checked that the store is its tree and nothing else.
func heldItems(t *testing.T, s *Store[string]) []string {
	items := s.tree.Items()
	if s.Len() != len(items) || s.tree.Len() != len(items) || s.treeDead != 0 || s.Buffered() != 0 {
		t.Fatalf("Len %d, tree of %d holding %d, %d tombstones, %d buffered", s.Len(), s.tree.Len(), len(items), s.treeDead, s.Buffered())
	}
	slices.Sort(items)
	return items
}

// FuzzLoad feeds Load arbitrary payloads, each raw and sealed behind a
// matching CRC as either format. Load must never panic and never allocate
// beyond a small multiple of its input; a store it returns holds exactly
// the items it reports and will rebuild with as many vantage points a node
// as its tree has; every query kind runs on it (its tree passed mvp.Load's
// shape check, but nothing says a fuzzed tree's distances are the metric's,
// so its answers are not held to anything); Save, of a store with nothing
// to compact, writes a stream that loads and saves again as the same
// bytes; after an insert, which makes Save rebuild under the loaded
// options, Save → Load keeps the items and, the tree now built and not
// read, the answers. Items decode as strings under edit distance, so any
// bytes are an item.
func FuzzLoad(f *testing.F) {
	words := dataset.Words(rand.New(rand.NewPCG(104, 5)), 60, dataset.WordOptions{MinLen: 3, MaxLen: 8, MisspellingsPer: 2})
	whole := savedWords(f, words, Options{Tree: mvp.Options{Partitions: 2, LeafCapacity: 5, PathLength: 3, Build: mvp.Build{Seed: 1}}})
	payload := testutil.PayloadOf(whole)
	f.Add(payload)
	f.Add(testutil.PayloadOf(savedWords(f, words, Options{Tree: mvp.Options{Vantages: 1, LeafCapacity: 1}})))
	f.Add(testutil.PayloadOf(savedWords(f, nil, Options{}))) // empty
	f.Add(payload[:len(payload)/2])                          // truncated
	f.Add(whole)                                             // a whole stream: loads raw
	v1, err := os.ReadFile("testdata/pr18_store_v1.dyn")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1) // a whole MVPDYN1 stream, of vectors: loads raw, as words
	// testdata/fuzz/FuzzLoad holds seedV1's payloads and checksumProof's.
	// The MVPTREE4 streams mvp.Load must refuse, behind a store's header.
	opts := mvp.Options{Partitions: 2, LeafCapacity: 5, PathLength: 3, Build: mvp.Build{Seed: 1}}
	tree, err := mvp.New(words, metric.NewCounter(metric.Edit), opts)
	if err != nil {
		f.Fatal(err)
	}
	var stream bytes.Buffer
	if err := tree.Save(&stream, encodeWord); err != nil {
		f.Fatal(err)
	}
	faults := testutil.ArenaFaults(stream.Bytes())
	for _, name := range slices.Sorted(maps.Keys(faults)) {
		f.Add(testutil.Payload(func(w *wire.Writer) {
			headerV2(w, 0.25, opts, 2, 1)
			w.Bytes(faults[name])
		}))
	}

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
	save := func(t *testing.T, s *Store[string]) []byte {
		var buf bytes.Buffer
		if err := s.Save(&buf, encodeWord); err != nil {
			t.Fatalf("Save of a loaded store: %v", err)
		}
		return buf.Bytes()
	}
	reload := func(t *testing.T, s *Store[string]) *Store[string] {
		again, err := loadWords(save(t, s))
		if err != nil {
			t.Fatalf("Load of a loaded store's Save: %v", err)
		}
		return again
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, stream := range [][]byte{payload, testutil.Seal(saveMagic, payload), testutil.Seal(loadMagicV1, payload)} {
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
			if s.opts.Tree.Vantages != s.tree.Vantages() {
				t.Fatalf("options say v = %d, tree v = %d", s.opts.Tree.Vantages, s.tree.Vantages())
			}
			held := heldItems(t, s)
			answers(s)

			saved := save(t, s)
			second, err := loadWords(saved)
			if err != nil {
				t.Fatalf("Load of a loaded store's Save: %v", err)
			}
			if got := heldItems(t, second); !slices.Equal(got, held) {
				t.Fatalf("Save -> Load changed the items: %q, had %q", got, held)
			}
			if again := save(t, second); !bytes.Equal(again, saved) {
				t.Fatalf("Save -> Load -> Save changed the stream:\n%x\n%x", again, saved)
			}
			if err := second.Insert("probe"); err != nil {
				t.Fatalf("Insert into a loaded store: %v", err)
			}
			third := reload(t, second)
			if got, want := heldItems(t, third), slices.Sorted(slices.Values(append(held, "probe"))); !slices.Equal(got, want) {
				t.Fatalf("Insert -> Save -> Load: items %q, want %q", got, want)
			}
			if got, want := answers(third), answers(second); !slices.Equal(got, want) {
				t.Fatalf("Save -> Load changed the answers:\n%v\n%v", got, want)
			}
		}
	})
}
