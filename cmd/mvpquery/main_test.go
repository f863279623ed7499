package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const vecData = "0 0\n1 0\n0 1\n3 4\n10 10\n"

func TestVectorRangeQuery(t *testing.T) {
	data := writeTemp(t, "v.txt", vecData)
	for _, idx := range []string{"mvp", "vp", "gnat", "laesa", "linear"} {
		var sb strings.Builder
		err := run(&sb, strings.NewReader(""), []string{
			"-data", data, "-index", idx, "-range", "1.5", "-query", "0 0", "-k", "2", "-p", "2",
		})
		if err != nil {
			t.Fatalf("%s: %v", idx, err)
		}
		out := sb.String()
		if !strings.Contains(out, "3 results") {
			t.Errorf("%s: expected 3 results within 1.5 of origin:\n%s", idx, out)
		}
	}
}

func TestVectorKNNQuery(t *testing.T) {
	data := writeTemp(t, "v.txt", vecData)
	var sb strings.Builder
	err := run(&sb, strings.NewReader(""), []string{
		"-data", data, "-index", "mvp", "-knn", "2", "-query", "9 9", "-k", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "10 10") {
		t.Errorf("nearest neighbor of (9,9) missing:\n%s", sb.String())
	}
}

func TestEditDistanceBKQuery(t *testing.T) {
	data := writeTemp(t, "w.txt", "hello\nhallo\nworld\nhelp\n")
	var sb strings.Builder
	err := run(&sb, strings.NewReader(""), []string{
		"-data", data, "-metric", "edit", "-index", "bk", "-range", "1", "-query", "hello",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2 results") {
		t.Errorf("expected hello+hallo:\n%s", sb.String())
	}
}

func TestQueriesFromStdin(t *testing.T) {
	data := writeTemp(t, "v.txt", vecData)
	var sb strings.Builder
	err := run(&sb, strings.NewReader("0 0\n\n10 10\n"), []string{
		"-data", data, "-range", "0.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "range r=0.5"); got != 2 {
		t.Errorf("answered %d stdin queries, want 2:\n%s", got, sb.String())
	}
}

func TestArgumentValidation(t *testing.T) {
	data := writeTemp(t, "v.txt", vecData)
	cases := [][]string{
		{"-range", "1"}, // missing -data
		{"-data", data}, // neither -range nor -knn
		{"-data", data, "-range", "1", "-knn", "2"},         // both
		{"-data", data, "-range", "1", "-metric", "cosine"}, // unknown metric
		{"-data", data, "-range", "1", "-index", "rtree"},   // unknown index
		{"-data", "/does/not/exist", "-range", "1"},         // missing file
		{"-data", data, "-range", "1", "-show", "-1"},       // negative -show
		{"-data", data, "-range", "NaN"},                    // not a radius
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(&sb, strings.NewReader(""), append(args, "-query", "0 0")); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	var sb strings.Builder
	if err := run(&sb, strings.NewReader(""), []string{"-data", data, "-range", "Inf", "-query", "0 0"}); err != nil || !strings.Contains(sb.String(), "5 results") {
		t.Errorf("-range Inf: %v\n%s", err, sb.String())
	}
}

func TestDimensionMismatchReported(t *testing.T) {
	data := writeTemp(t, "v.txt", vecData)
	idxPath := filepath.Join(t.TempDir(), "idx.mvpt")
	var sb strings.Builder
	err := run(&sb, strings.NewReader(""), []string{
		"-data", data, "-saveindex", idxPath, "-range", "1", "-query", "1 2 3",
	})
	if err == nil || !strings.Contains(err.Error(), "coordinates") {
		t.Errorf("dimension mismatch not reported: %v", err)
	}
	// The loaded index knows its dimension without -data.
	err = run(&sb, strings.NewReader(""), []string{
		"-loadindex", idxPath, "-range", "1", "-query", "1 2 3",
	})
	if err == nil || !strings.Contains(err.Error(), "coordinates") {
		t.Errorf("dimension mismatch on a loaded index not reported: %v", err)
	}
}

func TestSaveAndLoadIndex(t *testing.T) {
	data := writeTemp(t, "v.txt", vecData)
	idxPath := filepath.Join(t.TempDir(), "idx.mvpt")

	var sb strings.Builder
	err := run(&sb, strings.NewReader(""), []string{
		"-data", data, "-index", "mvp", "-k", "2", "-saveindex", idxPath,
		"-range", "1.5", "-query", "0 0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "3 results") {
		t.Fatalf("save run output:\n%s", sb.String())
	}

	sb.Reset()
	err = run(&sb, strings.NewReader(""), []string{
		"-loadindex", idxPath, "-index", "mvp", "-range", "1.5", "-query", "0 0",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "indexed 5 items with 0 distance computations") {
		t.Errorf("loading recomputed distances:\n%s", out)
	}
	if !strings.Contains(out, "3 results") {
		t.Errorf("loaded index answers differ:\n%s", out)
	}
}

func TestSaveLoadVPIndexStrings(t *testing.T) {
	data := writeTemp(t, "w.txt", "hello\nhallo\nworld\nhelp\n")
	idxPath := filepath.Join(t.TempDir(), "idx.vpt")
	var sb strings.Builder
	err := run(&sb, strings.NewReader(""), []string{
		"-data", data, "-metric", "edit", "-index", "vp",
		"-saveindex", idxPath, "-range", "1", "-query", "hello",
	})
	if err != nil {
		t.Fatal(err)
	}
	// One loader: the stream says it is a vp-tree, whatever -index says.
	for _, index := range [][]string{{"-index", "vp"}, {"-index", "mvp"}, nil} {
		sb.Reset()
		err = run(&sb, strings.NewReader(""), append([]string{
			"-loadindex", idxPath, "-metric", "edit", "-range", "1", "-query", "hello", "-stats",
		}, index...))
		if err != nil {
			t.Fatal(err)
		}
		// Four words, each a vantage point of the classic vp-tree: every
		// distance is one to a vantage point and nothing is a candidate.
		if out := sb.String(); !strings.Contains(out, "2 results") || !strings.Contains(out, "candidates=0 filtered-d=0 filtered-path=0 computed=0 vantage=3") {
			t.Errorf("loaded vp index (%v):\n%s", index, out)
		}
	}
}

func TestPersistenceFlagValidation(t *testing.T) {
	data := writeTemp(t, "v.txt", vecData)
	cases := [][]string{
		{"-data", data, "-saveindex", "/tmp/x", "-loadindex", "/tmp/x", "-range", "1", "-query", "0 0"},
		{"-data", data, "-index", "linear", "-saveindex", filepath.Join(t.TempDir(), "x"), "-range", "1", "-query", "0 0"},
		{"-loadindex", "/does/not/exist", "-range", "1", "-query", "0 0"},
		{"-loadindex", data, "-index", "gnat", "-range", "1", "-query", "0 0"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(&sb, strings.NewReader(""), args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRefusedSaveKeepsTheFile: -saveindex with an index it cannot save
// fails before it touches the file, which keeps the index saved there.
func TestRefusedSaveKeepsTheFile(t *testing.T) {
	data := writeTemp(t, "v.txt", vecData)
	idxPath := filepath.Join(t.TempDir(), "keep.mvp")
	var sb strings.Builder
	if err := run(&sb, strings.NewReader(""), []string{
		"-data", data, "-index", "mvp", "-k", "2", "-saveindex", idxPath, "-range", "1.5", "-query", "0 0",
	}); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(idxPath)
	if err != nil || len(saved) == 0 {
		t.Fatalf("saved %d bytes: %v", len(saved), err)
	}
	err = run(&sb, strings.NewReader(""), []string{
		"-data", data, "-index", "gnat", "-k", "2", "-saveindex", idxPath, "-range", "1.5", "-query", "0 0",
	})
	if err == nil || !strings.Contains(err.Error(), "does not support -saveindex") {
		t.Fatalf("-saveindex of a gnat index: %v", err)
	}
	if after, err := os.ReadFile(idxPath); err != nil || !bytes.Equal(after, saved) {
		t.Fatalf("the refused save left %d bytes of %d: %v", len(after), len(saved), err)
	}
	entries, err := os.ReadDir(filepath.Dir(idxPath))
	if err != nil || len(entries) != 1 {
		t.Fatalf("the directory holds %d files, want the index alone: %v", len(entries), err)
	}
}

func TestGMVPIndex(t *testing.T) {
	data := writeTemp(t, "v.txt", vecData)
	var sb strings.Builder
	err := run(&sb, strings.NewReader(""), []string{
		"-data", data, "-index", "gmvp", "-v", "3", "-m", "2", "-k", "2",
		"-range", "1.5", "-query", "0 0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "3 results") {
		t.Errorf("gmvp index:\n%s", sb.String())
	}
}

func TestJSONOutput(t *testing.T) {
	data := writeTemp(t, "v.txt", vecData)
	var sb strings.Builder
	err := run(&sb, strings.NewReader(""), []string{
		"-data", data, "-json", "-range", "1.5", "-query", "0 0", "-k", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Query   string `json:"query"`
		Kind    string `json:"kind"`
		R       float64
		Results []struct {
			Item string  `json:"item"`
			Dist float64 `json:"dist"`
		} `json:"results"`
		DistanceComputations int64 `json:"distanceComputations"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if res.Kind != "range" || len(res.Results) != 3 || res.DistanceComputations <= 0 {
		t.Errorf("JSON result: %+v", res)
	}

	sb.Reset()
	err = run(&sb, strings.NewReader(""), []string{
		"-data", data, "-json", "-knn", "2", "-query", "9 9", "-k", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(sb.String()), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if res.Kind != "knn" || len(res.Results) != 2 || res.Results[0].Item != "10 10" {
		t.Errorf("knn JSON result: %+v", res)
	}
}
