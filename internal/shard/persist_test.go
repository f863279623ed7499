package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/obs"
	"mvptree/internal/testutil"
)

func intCodec() (func(int) ([]byte, error), func([]byte) (int, error)) {
	enc := func(v int) ([]byte, error) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		return b[:], nil
	}
	dec := func(b []byte) (int, error) {
		return int(binary.LittleEndian.Uint64(b)), nil
	}
	return enc, dec
}

func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 2))
	w := testutil.NewVectorWorkload(rng, 300, 6, 6, metric.L2)
	enc, dec := intCodec()
	for name, mk := range backends() {
		be := mk()
		c := metric.NewCounter(w.Dist)
		x, err := New(w.Items, c, be, Options{Shards: 3, Assignment: Balanced, Workers: 2, Seed: 5})
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		dir := filepath.Join(t.TempDir(), "idx")
		if err := x.SaveDir(dir, be, enc); err != nil {
			t.Fatalf("%s: SaveDir: %v", name, err)
		}
		y, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec)
		if err != nil {
			t.Fatalf("%s: LoadDir: %v", name, err)
		}
		if y.Len() != x.Len() || y.Shards() != x.Shards() {
			t.Fatalf("%s: loaded Len=%d Shards=%d, want %d/%d", name, y.Len(), y.Shards(), x.Len(), x.Shards())
		}
		// Loaded index answers every query byte-identically.
		for _, q := range w.Queries {
			a := x.Range(q, 0.7)
			b := y.Range(q, 0.7)
			if len(a) != len(b) {
				t.Fatalf("%s: range sizes %d vs %d", name, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: range result[%d] differs", name, i)
				}
			}
			ka := x.KNN(q, 7)
			kb := y.KNN(q, 7)
			for i := range ka {
				if ka[i].Item != kb[i].Item || ka[i].Dist != kb[i].Dist {
					t.Fatalf("%s: knn result[%d] differs", name, i)
				}
			}
		}
	}
}

func TestLoadDirRejectsMismatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 2))
	w := testutil.NewVectorWorkload(rng, 60, 4, 2, metric.L2)
	enc, dec := intCodec()
	be := MVP[int](mvpOpts)
	x, err := New(w.Items, metric.NewCounter(w.Dist), be, Options{Shards: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir, be, enc); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	// Wrong backend.
	other := be
	other.Name = "gmvp"
	if _, err := LoadDir(dir, metric.NewCounter(w.Dist), other, dec); err == nil {
		t.Fatalf("LoadDir accepted mismatched backend")
	}
	// Missing blob.
	if err := os.Remove(filepath.Join(dir, readManifest(t, dir).Blobs[1])); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec); err == nil {
		t.Fatalf("LoadDir accepted missing shard blob")
	}
	// Corrupt manifest.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec); err == nil {
		t.Fatalf("LoadDir accepted corrupt manifest")
	}
}

// assertSameAnswers asserts y answers every workload query exactly like x.
func assertSameAnswers(t *testing.T, name string, x, y *Index[int], w *testutil.Workload) {
	t.Helper()
	for _, q := range w.Queries {
		a := x.Range(q, 0.7)
		b := y.Range(q, 0.7)
		if len(a) != len(b) {
			t.Fatalf("%s: range sizes %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: range result[%d] differs", name, i)
			}
		}
		ka := x.KNN(q, 7)
		kb := y.KNN(q, 7)
		if len(ka) != len(kb) {
			t.Fatalf("%s: knn sizes %d vs %d", name, len(ka), len(kb))
		}
		for i := range ka {
			if ka[i].Item != kb[i].Item || ka[i].Dist != kb[i].Dist {
				t.Fatalf("%s: knn result[%d] differs", name, i)
			}
		}
	}
}

// readManifest parses the on-disk manifest for white-box assertions.
func readManifest(t *testing.T, dir string) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("parse manifest: %v", err)
	}
	return m
}

// A save that dies mid-way — at any point before the final manifest
// rename — must leave the directory loading exactly the previous
// snapshot. The kill is injected through the item encoder: enc fails
// after a budget of calls, aborting SaveDir at every possible depth
// (before any blob, between blobs, mid-blob). The manifest-written-last
// discipline plus generation-numbered blob names make every such torn
// state load as the old snapshot — with the blobs written one at a time,
// and three at once, where the budget runs out in whichever shard's
// encoder asks last.
func TestSaveDirTornWriteKeepsOldSnapshot(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(44, 2))
			w1 := testutil.NewVectorWorkload(rng, 240, 6, 5, metric.L2)
			w2 := testutil.NewVectorWorkload(rng, 180, 6, 5, metric.L2)
			enc, dec := intCodec()
			be := MVP[int](mvpOpts)
			v1, err := New(w1.Items, metric.NewCounter(w1.Dist), be, Options{Shards: 3, Seed: 9})
			if err != nil {
				t.Fatalf("New v1: %v", err)
			}
			v2, err := New(w2.Items, metric.NewCounter(w2.Dist), be, Options{Shards: 3, Seed: 9, Workers: workers})
			if err != nil {
				t.Fatalf("New v2: %v", err)
			}
			dir := filepath.Join(t.TempDir(), "idx")
			if err := v1.SaveDir(dir, be, enc); err != nil {
				t.Fatalf("SaveDir v1: %v", err)
			}
			gen1 := readManifest(t, dir).Generation

			// Kill the v2 save after `budget` successful item encodes, for
			// every budget until the save finally succeeds.
			succeeded := false
			for budget := int64(0); budget < 10_000; budget += 1 + budget/2 {
				var calls atomic.Int64
				killEnc := func(v int) ([]byte, error) {
					if n := calls.Add(1); n > budget {
						return nil, fmt.Errorf("injected crash after %d encodes", n-1)
					}
					return enc(v)
				}
				err := v2.SaveDir(dir, be, killEnc)
				if err == nil {
					succeeded = true
					break
				}
				// Torn state: the old snapshot must load, byte-identically.
				got, lerr := LoadDir(dir, metric.NewCounter(w1.Dist), be, dec)
				if lerr != nil {
					t.Fatalf("budget %d: LoadDir after torn save failed: %v", budget, lerr)
				}
				if got.Len() != v1.Len() {
					t.Fatalf("budget %d: torn dir loaded %d items, want old snapshot's %d", budget, got.Len(), v1.Len())
				}
				if g := readManifest(t, dir).Generation; g != gen1 {
					t.Fatalf("budget %d: manifest generation %d, want untouched %d", budget, g, gen1)
				}
				assertSameAnswers(t, fmt.Sprintf("budget-%d", budget), v1, got, w1)
			}
			if !succeeded {
				t.Fatalf("SaveDir v2 never succeeded within the budget sweep")
			}

			// After the completed save the new snapshot is live...
			got, err := LoadDir(dir, metric.NewCounter(w2.Dist), be, dec)
			if err != nil {
				t.Fatalf("LoadDir after completed save: %v", err)
			}
			if got.Len() != v2.Len() {
				t.Fatalf("loaded %d items, want new snapshot's %d", got.Len(), v2.Len())
			}
			assertSameAnswers(t, "committed-v2", v2, got, w2)

			// ...and GC left exactly the manifest plus the live blobs.
			assertOnlyLive(t, dir)
		})
	}
}

// assertOnlyLive asserts dir holds the manifest and the blobs it names,
// nothing else.
func assertOnlyLive(t *testing.T, dir string) {
	t.Helper()
	m := readManifest(t, dir)
	live := map[string]bool{manifestName: true}
	for _, b := range m.Blobs {
		live[b] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !live[e.Name()] {
			t.Fatalf("stale file %q survived GC", e.Name())
		}
	}
}

// When one shard's encoder fails while the others are written beside it,
// SaveDir returns that shard's error once they are done: the manifest and
// its generation are untouched, no temp file is left, and the blobs the
// other shards got into place are garbage the next save collects.
func TestSaveDirOneShardFails(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 2))
	w := testutil.NewVectorWorkload(rng, 300, 6, 4, metric.L2)
	enc, dec := intCodec()
	be := MVP[int](mvpOpts)
	x, err := New(w.Items, metric.NewCounter(w.Dist), be, Options{Shards: 3, Seed: 2, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir, be, enc); err != nil {
		t.Fatal(err)
	}
	before := readManifest(t, dir)
	// Shard 1's items, by value: the encoder fails on the first it meets.
	doomed := map[int]bool{}
	for _, it := range x.Shard(1).Items() {
		doomed[it] = true
	}
	boom := errors.New("boom")
	err = x.SaveDir(dir, be, func(v int) ([]byte, error) {
		if doomed[v] {
			return nil, boom
		}
		return enc(v)
	})
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "shard 1: ") {
		t.Fatalf("SaveDir with shard 1 failing: %v", err)
	}
	if m := readManifest(t, dir); m.Generation != before.Generation || !slices.Equal(m.Blobs, before.Blobs) {
		t.Fatalf("manifest moved to generation %d %v, was %d %v", m.Generation, m.Blobs, before.Generation, before.Blobs)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %q survived the failed save", e.Name())
		}
		if e.Name() == blobName(0, before.Generation+1) || e.Name() == blobName(2, before.Generation+1) {
			stale++
		}
	}
	if stale != 2 {
		t.Fatalf("%d of the other shards' blobs are in place, want both", stale)
	}
	got, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, "after-failed-save", x, got, w)
	if err := x.SaveDir(dir, be, enc); err != nil {
		t.Fatal(err)
	}
	assertOnlyLive(t, dir)
}

// SaveDirSerial writes the blobs SaveDir writes, one shard after another
// at whatever Workers the index was built with: while shard 0's first
// item is held, no other shard's item is encoded.
func TestSaveDirSerialOneBlobAtATime(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 2))
	w := testutil.NewVectorWorkload(rng, 300, 6, 4, metric.L2)
	enc, _ := intCodec()
	be := MVP[int](mvpOpts)
	x, err := New(w.Items, metric.NewCounter(w.Dist), be, Options{Shards: 3, Seed: 2, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	inShard0 := map[int]bool{}
	for _, it := range x.Shard(0).Items() {
		inShard0[it] = true
	}
	var held atomic.Bool
	beside := make(chan struct{}, 1)
	serial, parallel := filepath.Join(t.TempDir(), "serial"), filepath.Join(t.TempDir(), "parallel")
	if err := x.SaveDirSerial(serial, be, func(v int) ([]byte, error) {
		if !inShard0[v] {
			select {
			case beside <- struct{}{}:
			default:
			}
		} else if held.CompareAndSwap(false, true) {
			select {
			case <-beside:
				t.Error("another shard was encoded beside shard 0")
			case <-time.After(50 * time.Millisecond):
			}
		}
		return enc(v)
	}); err != nil {
		t.Fatal(err)
	}
	if err := x.SaveDir(parallel, be, enc); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, serial)
	if p := readManifest(t, parallel); !slices.Equal(m.Blobs, p.Blobs) || !slices.Equal(m.Sizes, p.Sizes) {
		t.Fatalf("manifests differ: %+v and %+v", m, p)
	}
	for _, name := range m.Blobs {
		a, errA := os.ReadFile(filepath.Join(serial, name))
		b, errB := os.ReadFile(filepath.Join(parallel, name))
		if errA != nil || errB != nil || !slices.Equal(a, b) {
			t.Fatalf("blob %s differs between the two saves (%v, %v)", name, errA, errB)
		}
	}
}

// The other torn shape: every new blob written but the manifest rename
// never reached (crash between the two phases). Simulated by committing
// v2 into a scratch dir and copying only its blobs — not its manifest —
// next to v1's live manifest. The old snapshot must still load.
func TestSaveDirCrashBeforeManifestCommit(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 2))
	w1 := testutil.NewVectorWorkload(rng, 200, 6, 4, metric.L2)
	w2 := testutil.NewVectorWorkload(rng, 150, 6, 4, metric.L2)
	enc, dec := intCodec()
	be := MVP[int](mvpOpts)
	v1, err := New(w1.Items, metric.NewCounter(w1.Dist), be, Options{Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := New(w2.Items, metric.NewCounter(w2.Dist), be, Options{Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	scratch := filepath.Join(t.TempDir(), "scratch")
	if err := v1.SaveDir(dir, be, enc); err != nil {
		t.Fatal(err)
	}
	if err := v1.SaveDir(scratch, be, enc); err != nil {
		t.Fatal(err)
	}
	if err := v2.SaveDir(scratch, be, enc); err != nil {
		t.Fatal(err)
	}
	// scratch is now at generation 2, matching what a second save into
	// dir would have produced; copy only the blobs.
	m2 := readManifest(t, scratch)
	for _, b := range m2.Blobs {
		raw, err := os.ReadFile(filepath.Join(scratch, b))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, b), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadDir(dir, metric.NewCounter(w1.Dist), be, dec)
	if err != nil {
		t.Fatalf("LoadDir with uncommitted new blobs: %v", err)
	}
	if got.Len() != v1.Len() {
		t.Fatalf("loaded %d items, want old snapshot's %d", got.Len(), v1.Len())
	}
	assertSameAnswers(t, "uncommitted-blobs", v1, got, w1)
}

// Corruption in a shard blob — truncation, a flipped payload bit, or an
// insane length prefix — must surface as a load error, never as a
// quietly different index.
func TestLoadDirDetectsCorruptBlobs(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 2))
	w := testutil.NewVectorWorkload(rng, 200, 5, 2, metric.L2)
	enc, dec := intCodec()
	be := MVP[int](mvpOpts)
	x, err := New(w.Items, metric.NewCounter(w.Dist), be, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir, be, enc); err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(dir, readManifest(t, dir).Blobs[0])
	pristine, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(blob, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Sanity: pristine dir loads.
	if _, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec); err != nil {
		t.Fatalf("pristine LoadDir: %v", err)
	}

	// Truncation: half the blob gone.
	if err := os.WriteFile(blob, pristine[:len(pristine)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec); err == nil {
		t.Fatalf("LoadDir accepted a truncated blob")
	}
	restore()

	// A single flipped bit mid-payload: caught by the blob's checksum.
	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)/2] ^= 0x10
	if err := os.WriteFile(blob, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec); err == nil {
		t.Fatalf("LoadDir accepted a bit-flipped blob")
	}
	restore()

	// An all-ones header turns the leading length prefix into a huge
	// varint: caught by the wire.MaxBytes bound (or the magic check).
	smashed := append([]byte(nil), pristine...)
	for i := 0; i < 12 && i < len(smashed); i++ {
		smashed[i] = 0xFF
	}
	if err := os.WriteFile(blob, smashed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec); err == nil {
		t.Fatalf("LoadDir accepted a blob with a smashed header")
	}
	restore()

	// Swapping two blobs of different sizes trips the manifest's
	// per-shard size cross-check.
	m := readManifest(t, dir)
	if m.Sizes[0] != m.Sizes[1] {
		a := filepath.Join(dir, m.Blobs[0])
		b := filepath.Join(dir, m.Blobs[1])
		ra, _ := os.ReadFile(a)
		rb, _ := os.ReadFile(b)
		os.WriteFile(a, rb, 0o644)
		os.WriteFile(b, ra, 0o644)
		if _, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec); err == nil {
			t.Fatalf("LoadDir accepted swapped shard blobs of different sizes")
		}
	}
}

// Every Assignment round-trips through its manifest string, and unknown
// names are rejected instead of silently becoming RoundRobin.
func TestAssignmentRoundTrip(t *testing.T) {
	for _, a := range Assignments {
		got, err := ParseAssignment(a.String())
		if err != nil {
			t.Fatalf("ParseAssignment(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("ParseAssignment(%q) = %v, want %v", a.String(), got, a)
		}
	}
	for _, bad := range []string{"", "round-robin", "BALANCED", "hash", "assignment(7)"} {
		if _, err := ParseAssignment(bad); err == nil {
			t.Fatalf("ParseAssignment(%q) accepted an unknown name", bad)
		}
	}

	// End to end: each assignment survives SaveDir → LoadDir, and a
	// manifest naming an unknown assignment refuses to load.
	rng := rand.New(rand.NewPCG(47, 2))
	w := testutil.NewVectorWorkload(rng, 90, 4, 2, metric.L2)
	enc, dec := intCodec()
	be := MVP[int](mvpOpts)
	for _, a := range Assignments {
		x, err := New(w.Items, metric.NewCounter(w.Dist), be, Options{Shards: 2, Assignment: a, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "idx-"+a.String())
		if err := x.SaveDir(dir, be, enc); err != nil {
			t.Fatal(err)
		}
		y, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec)
		if err != nil {
			t.Fatal(err)
		}
		if y.opts.Assignment != a {
			t.Fatalf("assignment %v loaded back as %v", a, y.opts.Assignment)
		}

		raw, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		m.Assignment = "definitely-not-a-strategy"
		mangled, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec); err == nil {
			t.Fatalf("LoadDir accepted unknown assignment name")
		}
	}
}

// Manifests written before generation-numbered blobs (no blobs list)
// still load through the fixed legacy names.
func TestLoadDirLegacyLayout(t *testing.T) {
	rng := rand.New(rand.NewPCG(48, 2))
	w := testutil.NewVectorWorkload(rng, 120, 5, 3, metric.L2)
	enc, dec := intCodec()
	be := MVP[int](mvpOpts)
	x, err := New(w.Items, metric.NewCounter(w.Dist), be, Options{Shards: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir, be, enc); err != nil {
		t.Fatal(err)
	}
	// Rewrite the directory into the legacy shape: fixed blob names, a
	// manifest without generation/blobs fields.
	m := readManifest(t, dir)
	for i, b := range m.Blobs {
		if err := os.Rename(filepath.Join(dir, b), filepath.Join(dir, legacyBlobName(i))); err != nil {
			t.Fatal(err)
		}
	}
	m.Blobs = nil
	m.Generation = 0
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	y, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec)
	if err != nil {
		t.Fatalf("LoadDir legacy layout: %v", err)
	}
	if y.Len() != x.Len() {
		t.Fatalf("legacy load: %d items, want %d", y.Len(), x.Len())
	}
	assertSameAnswers(t, "legacy", x, y, w)
}

// The index's own observer sees one span per logical query, carrying the
// stats merged across the shards, whichever entry point answered it.
func TestShardObserverMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 2))
	w := testutil.NewVectorWorkload(rng, 200, 5, 4, metric.L2)
	x, err := New(w.Items, metric.NewCounter(w.Dist), MVP[int](mvpOpts), Options{Shards: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	logical := obs.NewObserver(1)
	x.SetObserver(logical)

	const nq = 8
	var wantComputed int64
	for _, q := range w.Queries[:2] {
		_, s1 := x.RangeWithStats(q, 0.5)
		_, s2 := x.KNNWithStats(q, 5)
		group := []index.Query[int]{index.RangeQuery(q, 0.5), index.RangeQuery(q, 0.2)}
		out := make([]index.Result[int], len(group))
		x.SearchBatch(group, out)
		wantComputed += s1.Distances() + s2.Distances() + out[0].Stats.Distances() + out[1].Stats.Distances()
	}

	ls := logical.Snapshot()
	if ls.Queries != nq {
		t.Fatalf("logical observer saw %d queries, want %d", ls.Queries, nq)
	}
	if ls.Distances != wantComputed {
		t.Fatalf("logical observer distance total %d, want %d", ls.Distances, wantComputed)
	}
}

// benchIndex is what the persistence benchmarks save and load: 50 000
// uniform vectors of dim 20 in 2 shards built with 2 workers, as mvpserve
// builds its index on the serve-mixed workload.
func benchIndex(b *testing.B) (*Index[[]float64], Backend[[]float64]) {
	items := dataset.UniformVectors(rand.New(rand.NewPCG(1, 0)), 50_000, 20)
	be := MVP[[]float64](mvp.Options{Partitions: 3, LeafCapacity: 50, PathLength: 5})
	x, err := New(items, metric.NewCounter(metric.L2), be, Options{Shards: 2, Workers: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return x, be
}

func BenchmarkSaveDir(b *testing.B) {
	x, be := benchIndex(b)
	dir := b.TempDir()
	b.ReportAllocs()
	for b.Loop() {
		if err := x.SaveDir(dir, be, codec.EncodeVector); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadDir(b *testing.B) {
	x, be := benchIndex(b)
	dir := b.TempDir()
	if err := x.SaveDir(dir, be, codec.EncodeVector); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadDir(dir, metric.NewCounter(metric.L2), be, codec.DecodeVector); err != nil {
			b.Fatal(err)
		}
	}
}
