package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// Directory persistence for a sharded index: a JSON manifest naming the
// layout plus one blob per shard in the tree's own wire format
// (which carries its own magic, version and integrity checks). The
// manifest is the source of truth for the shard count, the backend and
// the blob file names; LoadDir cross-checks all three before touching a
// blob.
//
// Crash safety. A snapshot directory must never be loadable-but-wrong:
// the manifest's presence implies a complete, consistent snapshot. Two
// disciplines enforce that:
//
//   - Every file — blob and manifest alike — is written to a temp file
//     in the same directory, fsynced, and renamed into place. A crash
//     mid-write leaves only a stray temp file, never a torn file under
//     the real name.
//
//   - Blobs are written first and the manifest last, and each save
//     writes its blobs under fresh generation-numbered names
//     (shard-0007-g00000003.bin) that cannot collide with the blobs the
//     live manifest references. The manifest rename is therefore the
//     atomic commit point: a crash anywhere before it leaves the
//     previous snapshot fully intact (old manifest → old blobs), and a
//     crash after it leaves the new snapshot fully written. Stale
//     blobs from earlier generations are garbage-collected only after
//     the commit, and a crash during GC merely leaves unreferenced
//     files behind.

// manifestName is the manifest's filename inside the index directory.
const manifestName = "manifest.json"

// manifestVersion guards the manifest schema itself. Version 1 readers
// ignore the generation/blob fields added for crash safety, so version
// stays at 1; manifests written before those fields existed load
// through the legacy fixed blob names.
const manifestVersion = 1

type manifest struct {
	Version    int    `json:"version"`
	Backend    string `json:"backend"`
	Shards     int    `json:"shards"`
	Assignment string `json:"assignment"`
	Seed       uint64 `json:"seed"`
	Sizes      []int  `json:"sizes"`
	// Generation increments on every SaveDir into the same directory;
	// Blobs names the generation's shard files. Both are absent from
	// legacy manifests, which used the fixed legacyBlobName layout.
	Generation uint64   `json:"generation,omitempty"`
	Blobs      []string `json:"blobs,omitempty"`
	// Shells is shard i's [min, max] distance to the pivot, and Pivot
	// the pivot in the blobs' encoding; an index without shells, and
	// every manifest written before they existed, carries neither.
	Shells [][]float64 `json:"shells,omitempty"`
	Pivot  []byte      `json:"pivot,omitempty"`
}

// legacyBlobName is the fixed pre-generation blob layout, still
// accepted by LoadDir for manifests that carry no Blobs list.
func legacyBlobName(i int) string { return fmt.Sprintf("shard-%04d.bin", i) }

func blobName(i int, gen uint64) string {
	return fmt.Sprintf("shard-%04d-g%08d.bin", i, gen)
}

// parseManifest decodes a manifest and checks everything it says that
// needs no backend: the schema version, one size and one blob per shard,
// and blob names that are the ones SaveDir gives shard i of the stated
// generation — so none is a path, and LoadDir opens nothing outside the
// snapshot directory on a manifest's word — and, when it carries shells,
// that it is a Shells manifest with one finite [min, max] per shard, each
// shard's above the one before's. A legacy manifest comes back with its
// fixed names filled in.
func parseManifest(raw []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("shard: bad manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("shard: manifest version %d, want %d", m.Version, manifestVersion)
	}
	if m.Shards <= 0 || m.Shards != len(m.Sizes) {
		return m, fmt.Errorf("shard: manifest inconsistent: %d shards, %d sizes", m.Shards, len(m.Sizes))
	}
	if err := checkShells(m); err != nil {
		return m, err
	}
	if m.Blobs == nil {
		m.Blobs = make([]string, m.Shards)
		for i := range m.Blobs {
			m.Blobs[i] = legacyBlobName(i)
		}
		return m, nil
	}
	if len(m.Blobs) != m.Shards {
		return m, fmt.Errorf("shard: manifest inconsistent: %d shards, %d blobs", m.Shards, len(m.Blobs))
	}
	for i, name := range m.Blobs {
		if want := blobName(i, m.Generation); name != want {
			return m, fmt.Errorf("shard: manifest names shard %d's blob %q, generation %d writes %q", i, name, m.Generation, want)
		}
	}
	return m, nil
}

// checkShells checks a manifest's shells and pivot (parseManifest).
func checkShells(m manifest) error {
	if m.Shells == nil {
		if m.Pivot != nil {
			return fmt.Errorf("shard: manifest carries a pivot and no shells")
		}
		return nil
	}
	if m.Assignment != Shells.String() {
		return fmt.Errorf("shard: manifest of assignment %q carries shells", m.Assignment)
	}
	if len(m.Shells) != m.Shards {
		return fmt.Errorf("shard: manifest inconsistent: %d shards, %d shells", m.Shards, len(m.Shells))
	}
	for i, sh := range m.Shells {
		if len(sh) != 2 || !finite(sh[0]) || !finite(sh[1]) || sh[0] > sh[1] {
			return fmt.Errorf("shard: manifest gives shard %d the shell %v, want a finite [min, max]", i, sh)
		}
		if i > 0 && sh[0] < m.Shells[i-1][1] {
			return fmt.Errorf("shard: manifest's shell %d starts below shell %d's end", i, i-1)
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// WriteFileAtomic writes name inside dir through a same-directory temp
// file, fsyncs it, and renames it into place, so the file either exists
// complete under its final name or not at all: a write that fails leaves
// whatever was there before untouched, and no temp file behind.
func WriteFileAtomic(dir, name string, write func(f *os.File) error) (err error) {
	f, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, name))
}

// syncDir fsyncs the directory itself so renames are durable. Best
// effort: some filesystems refuse fsync on directories, and the rename
// ordering alone already guarantees consistency (just not durability of
// the very last save).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// nextGeneration picks a generation number strictly above anything in
// the directory: the live manifest's generation and any blob file left
// by an interrupted save.
func nextGeneration(dir string) uint64 {
	var maxGen uint64
	if raw, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		var m manifest
		if json.Unmarshal(raw, &m) == nil && m.Generation > maxGen {
			maxGen = m.Generation
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return maxGen + 1
	}
	for _, e := range entries {
		var i int
		var g uint64
		if n, _ := fmt.Sscanf(e.Name(), "shard-%04d-g%08d.bin", &i, &g); n == 2 && g > maxGen {
			maxGen = g
		}
	}
	return maxGen + 1
}

// SaveDir writes the index into dir (created if missing): one blob per
// shard first, the manifest last. The manifest rename is the atomic
// commit point — a crash anywhere during SaveDir leaves the directory
// loading exactly the previous snapshot (or failing loudly if there
// never was one), never a mix.
//
// The blobs are written side by side, as many at once as the Workers the
// index was built with (one at a time at Workers ≤ 1, and for an index
// LoadDir read), so enc may run on several goroutines at once. A shard
// that fails fails the save, with that shard's error, once every blob
// under way has finished: the manifest is not touched, and a blob another
// shard got into place is garbage the next save collects.
func (x *Index[T]) SaveDir(dir string, be Backend[T], enc func(T) ([]byte, error)) error {
	return x.saveDir(dir, be, enc, x.opts.Workers)
}

// SaveDirSerial is SaveDir writing one blob at a time, whatever the
// Workers: a save that runs beside serving then holds one P, and leaves
// the others to the queries. The index is only read, so queries need no
// ordering against it.
func (x *Index[T]) SaveDirSerial(dir string, be Backend[T], enc func(T) ([]byte, error)) error {
	return x.saveDir(dir, be, enc, 1)
}

// saveDir is SaveDir writing up to workers blobs at once (at least one).
func (x *Index[T]) saveDir(dir string, be Backend[T], enc func(T) ([]byte, error), workers int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gen := nextGeneration(dir)
	m := manifest{
		Version:    manifestVersion,
		Backend:    be.Name,
		Shards:     len(x.shards),
		Assignment: x.opts.Assignment.String(),
		Seed:       x.opts.Seed,
		Sizes:      make([]int, len(x.shards)),
		Generation: gen,
		Blobs:      make([]string, len(x.shards)),
	}
	for i, s := range x.shards {
		m.Sizes[i] = s.Len()
		m.Blobs[i] = blobName(i, gen)
	}
	if x.shells != nil {
		pivot, err := enc(x.pivot)
		if err != nil {
			return fmt.Errorf("shard: encoding the shells' pivot: %w", err)
		}
		m.Pivot = pivot
		for _, sh := range x.shells {
			m.Shells = append(m.Shells, []float64{sh.lo, sh.hi})
		}
	}
	// Blobs first: fresh generation names, so nothing the live manifest
	// references is touched.
	errs := make([]error, len(x.shards))
	sem := make(chan struct{}, max(1, workers))
	var wg sync.WaitGroup
	for i, s := range x.shards {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			errs[i] = WriteFileAtomic(dir, m.Blobs[i], func(f *os.File) error { return s.Save(f, enc) })
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	syncDir(dir)
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	// Manifest last: the commit point.
	err = WriteFileAtomic(dir, manifestName, func(f *os.File) error {
		_, werr := f.Write(append(raw, '\n'))
		return werr
	})
	if err != nil {
		return err
	}
	syncDir(dir)
	gcStaleBlobs(dir, m.Blobs)
	return nil
}

// gcStaleBlobs removes snapshot files (blobs and temp leftovers) not
// referenced by the just-committed manifest. Best effort: a failure
// leaves garbage, never breaks the snapshot.
func gcStaleBlobs(dir string, keep []string) {
	live := make(map[string]bool, len(keep)+1)
	live[manifestName] = true
	for _, b := range keep {
		live[b] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if live[name] {
			continue
		}
		if strings.HasPrefix(name, "shard-") || strings.Contains(name, ".tmp-") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// LoadDir reads an index previously written by SaveDir. The backend
// must match the one named in the manifest.
func LoadDir[T any](dir string, dist *metric.Counter[T], be Backend[T], dec func([]byte) (T, error)) (*Index[T], error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(raw)
	if err != nil {
		return nil, err
	}
	if m.Backend != be.Name {
		return nil, fmt.Errorf("shard: manifest backend %q, loading with %q", m.Backend, be.Name)
	}
	assignment, err := ParseAssignment(m.Assignment)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	x := &Index[T]{
		shards: make([]*mvp.Tree[T], m.Shards),
		dist:   dist,
		opts:   Options{Shards: m.Shards, Seed: m.Seed, Assignment: assignment},
	}
	if m.Shells != nil {
		if x.pivot, err = dec(m.Pivot); err != nil {
			return nil, fmt.Errorf("shard: manifest pivot: %w", err)
		}
		x.shells = make([]shell, m.Shards)
		for i, sh := range m.Shells {
			x.shells[i] = shell{sh[0], sh[1]}
		}
	}
	for i := range x.shards {
		// Whole, so that Load reads it into one buffer of its size.
		raw, err := os.ReadFile(filepath.Join(dir, m.Blobs[i]))
		if err != nil {
			return nil, err
		}
		s, err := mvp.Load(bytes.NewReader(raw), dist, dec)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if s.Len() != m.Sizes[i] {
			return nil, fmt.Errorf("shard %d: %d items, manifest says %d", i, s.Len(), m.Sizes[i])
		}
		x.shards[i] = s
		x.size += s.Len()
	}
	return x, nil
}
