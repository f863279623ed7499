package main

import (
	"os"
	"path/filepath"
	"testing"

	"mvptree/internal/pgm"
	"mvptree/internal/vector"
)

func TestGenerateUniformVectors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "vecs.txt")
	if err := run([]string{"-kind", "uniform", "-n", "50", "-dim", "7", "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	vs, err := vector.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 50 || len(vs[0]) != 7 {
		t.Errorf("wrote %d vectors of dim %d", len(vs), len(vs[0]))
	}
}

func TestGenerateClusteredVectors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "c.txt")
	if err := run([]string{"-kind", "clustered", "-n", "40", "-dim", "3", "-cluster", "10", "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, _ := os.Open(out)
	defer f.Close()
	vs, err := vector.ReadAll(f)
	if err != nil || len(vs) != 40 {
		t.Errorf("clustered output: %d vectors, %v", len(vs), err)
	}
}

func TestGenerateImages(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "imgs")
	if err := run([]string{"-kind", "images", "-n", "5", "-imgdim", "8", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("wrote %d files", len(entries))
	}
	f, err := os.Open(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	im, err := pgm.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if im.Width != 8 || im.Height != 8 {
		t.Errorf("image dims %dx%d", im.Width, im.Height)
	}
}

func TestGenerateWords(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "w.txt")
	if err := run([]string{"-kind", "words", "-n", "30", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := len(splitNonEmpty(string(data))); lines != 30 {
		t.Errorf("wrote %d words", lines)
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	return out
}

func TestRejectsBadArguments(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x")
	cases := [][]string{
		{"-kind", "uniform"},                                      // no -out
		{"-kind", "nonsense", "-out", "/tmp/x"},                   // bad kind
		{"-kind", "uniform", "-out", "/nonexistent/dir/file.txt"}, // unwritable
		{"-kind", "uniform", "-n", "-1", "-out", out},             // negative size
		{"-kind", "uniform", "-dim", "-1", "-out", out},
		{"-kind", "uniform", "-dim", "0", "-out", out},
		{"-kind", "words", "-n", "-2", "-out", out},
		{"-kind", "clustered", "-cluster", "0", "-out", out},
		{"-kind", "images", "-imgdim", "-3", "-out", out},
		{"-kind", "images", "-subjects", "-1", "-out", out},
		{"-kind", "clustered", "-eps", "NaN", "-out", out},
		{"-kind", "clustered", "-eps", "Inf", "-out", out},
		{"-kind", "clustered", "-eps", "-Inf", "-out", out},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.txt"), filepath.Join(dir, "b.txt")
	for _, out := range []string{a, b} {
		if err := run([]string{"-kind", "uniform", "-n", "20", "-dim", "4", "-seed", "5", "-out", out}); err != nil {
			t.Fatal(err)
		}
	}
	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	if string(da) != string(db) {
		t.Error("same seed produced different output")
	}
}
