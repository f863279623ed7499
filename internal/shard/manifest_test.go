package shard

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

// manifestRows is manifests by what parseManifest must say of each, ""
// for the ones it takes; they are FuzzManifest's seeds.
var manifestRows = []struct{ name, raw, refusal string }{
	{"written by SaveDir", `{"version":1,"backend":"mvp","shards":2,"assignment":"round-robin","seed":4,"sizes":[60,60],"generation":3,"blobs":["shard-0000-g00000003.bin","shard-0001-g00000003.bin"]}`, ""},
	{"legacy, no blobs", `{"version":1,"backend":"mvp","shards":2,"assignment":"round-robin","sizes":[60,60]}`, ""},
	{"blob leaves the directory", `{"version":1,"shards":1,"sizes":[1],"generation":1,"blobs":["../../x"]}`, "names shard 0's blob"},
	{"blob in a subdirectory", `{"version":1,"shards":1,"sizes":[1],"generation":1,"blobs":["sub/shard-0000-g00000001.bin"]}`, "names shard 0's blob"},
	{"blob is an absolute path", `{"version":1,"shards":1,"sizes":[1],"generation":1,"blobs":["/etc/passwd"]}`, "names shard 0's blob"},
	{"blob of another generation", `{"version":1,"shards":1,"sizes":[1],"generation":2,"blobs":["shard-0000-g00000001.bin"]}`, "names shard 0's blob"},
	{"blobs swapped", `{"version":1,"shards":2,"sizes":[1,1],"generation":1,"blobs":["shard-0001-g00000001.bin","shard-0000-g00000001.bin"]}`, "names shard 0's blob"},
	{"more shards than sizes", `{"version":1,"shards":3,"sizes":[1,1],"generation":1,"blobs":["shard-0000-g00000001.bin"]}`, "3 shards, 2 sizes"},
	{"more shards than blobs", `{"version":1,"shards":2,"sizes":[1,1],"generation":1,"blobs":["shard-0000-g00000001.bin"]}`, "2 shards, 1 blobs"},
	{"no shards", `{"version":1,"shards":0,"sizes":[]}`, "0 shards"},
	{"unknown version", `{"version":2,"shards":1,"sizes":[1]}`, "version 2"},
	{"not JSON", `{`, "bad manifest"},
	{"shells, written by SaveDir", `{"version":1,"backend":"mvp","shards":2,"assignment":"shells","seed":4,"sizes":[60,60],"generation":3,"blobs":["shard-0000-g00000003.bin","shard-0001-g00000003.bin"],"shells":[[0,0.5],[0.5,1.25]],"pivot":"AAAAAAAA8D8="}`, ""},
	{"shells, an empty pivot", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"shells":[[0,0],[1,2]]}`, ""},
	{"shells, NaN", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"shells":[[NaN,1],[1,2]],"pivot":"AA=="}`, "bad manifest"},
	{"shells, NaN as a string", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"shells":[["NaN",1],[1,2]],"pivot":"AA=="}`, "bad manifest"},
	{"shells, an end beyond float64", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"shells":[[0,1e999],[1,2]],"pivot":"AA=="}`, "bad manifest"},
	{"shells out of order", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"shells":[[1,2],[0,0.5]],"pivot":"AA=="}`, "shell 1 starts below shell 0's end"},
	{"shells overlapping", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"shells":[[0,1.5],[1,2]],"pivot":"AA=="}`, "shell 1 starts below shell 0's end"},
	{"a shell above its end", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"shells":[[1,0.5],[1,2]],"pivot":"AA=="}`, "shard 0 the shell"},
	{"a shell of one end", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"shells":[[1],[1,2]],"pivot":"AA=="}`, "shard 0 the shell"},
	{"fewer shells than shards", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"shells":[[0,1]],"pivot":"AA=="}`, "2 shards, 1 shells"},
	{"more shells than shards", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"shells":[[0,1],[1,2],[2,3]],"pivot":"AA=="}`, "2 shards, 3 shells"},
	{"a truncated pivot", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"shells":[[0,1],[1,2]],"pivot":"AAAAAAA"}`, "bad manifest"},
	{"a pivot and no shells", `{"version":1,"shards":2,"assignment":"shells","sizes":[1,1],"pivot":"AA=="}`, "a pivot and no shells"},
	{"shells on a round-robin manifest", `{"version":1,"shards":2,"assignment":"roundrobin","sizes":[1,1],"shells":[[0,1],[1,2]],"pivot":"AA=="}`, "carries shells"},
}

func TestParseManifest(t *testing.T) {
	for _, row := range manifestRows {
		m, err := parseManifest([]byte(row.raw))
		switch {
		case row.refusal != "":
			if err == nil || !strings.Contains(err.Error(), row.refusal) {
				t.Errorf("%s: %v, want a refusal saying %q", row.name, err, row.refusal)
			}
		case err != nil:
			t.Errorf("%s: %v", row.name, err)
		case len(m.Blobs) != 2 || !strings.HasPrefix(m.Blobs[1], "shard-0001"):
			t.Errorf("%s: blobs %q", row.name, m.Blobs)
		}
	}
}

// TestLoadDirStaysInsideTheDirectory: a manifest naming a blob outside
// the snapshot directory — where a real one sits, so that opening it
// would succeed — is refused before any file is opened.
func TestLoadDirStaysInsideTheDirectory(t *testing.T) {
	w := testutil.NewVectorWorkload(rand.New(rand.NewPCG(49, 2)), 60, 4, 2, metric.L2)
	enc, dec := intCodec()
	be := MVP[int](mvpOpts)
	x, err := New(w.Items, metric.NewCounter(w.Dist), be, Options{Shards: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	dir := filepath.Join(root, "snapshots", "idx")
	if err := x.SaveDir(dir, be, enc); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, dir)
	if err := os.Rename(filepath.Join(dir, m.Blobs[0]), filepath.Join(root, "x")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	escaped := strings.Replace(string(raw), m.Blobs[0], "../../x", 1)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(escaped), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir, metric.NewCounter(w.Dist), be, dec); err == nil || !strings.Contains(err.Error(), "names shard 0's blob") {
		t.Fatalf("LoadDir of a manifest naming ../../x: %v", err)
	}
}

// TestLoadDirRefusesABadPivot: a Shells snapshot whose pivot the decoder
// refuses is an error, however sound its shells.
func TestLoadDirRefusesABadPivot(t *testing.T) {
	items := dataset.UniformVectors(rand.New(rand.NewPCG(51, 4)), 200, 4)
	be := MVP[[]float64](mvpOpts)
	x, err := New(items, metric.NewCounter(metric.L2), be, Options{Shards: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir, be, codec.EncodeVector); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, dir)
	if m.Assignment != "shells" || len(m.Shells) != 2 || len(m.Pivot) != 8*4 {
		t.Fatalf("the manifest of a Shells index: %+v", m)
	}
	m.Pivot = m.Pivot[:7]
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir, metric.NewCounter(metric.L2), be, codec.DecodeVector); err == nil || !strings.Contains(err.Error(), "manifest pivot") {
		t.Fatalf("LoadDir of a 7-byte pivot: %v", err)
	}
}

// FuzzManifest: parseManifest never panics, and a manifest it takes has a
// size and a blob for every shard, each blob a plain file name — nothing
// filepath.Join can lead out of the directory with — and either no shells
// and no pivot, or a finite [min, max] per shard of a Shells manifest,
// each at or above the one before.
func FuzzManifest(f *testing.F) {
	for _, row := range manifestRows {
		f.Add([]byte(row.raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := parseManifest(raw)
		if err != nil {
			return
		}
		if m.Shards <= 0 || len(m.Sizes) != m.Shards || len(m.Blobs) != m.Shards {
			t.Fatalf("took %d shards, %d sizes, %d blobs", m.Shards, len(m.Sizes), len(m.Blobs))
		}
		for _, name := range m.Blobs {
			if !filepath.IsLocal(name) || strings.ContainsAny(name, `/\`) || filepath.Base(name) != name {
				t.Fatalf("took the blob name %q", name)
			}
		}
		if m.Shells == nil {
			if m.Pivot != nil {
				t.Fatalf("took a pivot without shells")
			}
			return
		}
		if len(m.Shells) != m.Shards || m.Assignment != Shells.String() {
			t.Fatalf("took %d shells for %d shards of assignment %q", len(m.Shells), m.Shards, m.Assignment)
		}
		for i, sh := range m.Shells {
			if len(sh) != 2 || !finite(sh[0]) || !finite(sh[1]) || sh[0] > sh[1] || i > 0 && sh[0] < m.Shells[i-1][1] {
				t.Fatalf("took the shells %v", m.Shells)
			}
		}
	})
}
