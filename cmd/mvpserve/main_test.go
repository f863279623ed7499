package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mvptree"
	"mvptree/internal/shard"
)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a shutdown func that cancels the context and waits for run
// to return, failing the test on a non-nil error.
func startDaemon(t *testing.T, args ...string) (string, *bytes.Buffer, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, &out, append([]string{"-addr", "127.0.0.1:0"}, args...), ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return base, &out, func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("run returned %v\noutput:\n%s", err, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func query(dim int, fill float64) []float64 {
	q := make([]float64, dim)
	for i := range q {
		q[i] = fill
	}
	return q
}

func TestDaemonSmoke(t *testing.T) {
	const dim = 8
	base, out, shutdown := startDaemon(t, "-n", "500", "-dim", fmt.Sprint(dim), "-shards", "2")

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: resp=%v err=%v", resp, err)
	} else {
		resp.Body.Close()
	}

	resp, body := postJSON(t, base+"/range", map[string]any{"query": query(dim, 0.5), "r": 0.8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range: status %d body %s", resp.StatusCode, body)
	}
	var rangeReply struct {
		Results [][]float64 `json:"results"`
		Count   int         `json:"count"`
	}
	if err := json.Unmarshal(body, &rangeReply); err != nil {
		t.Fatalf("range reply: %v (%s)", err, body)
	}
	if rangeReply.Count != len(rangeReply.Results) {
		t.Fatalf("range count %d != %d results", rangeReply.Count, len(rangeReply.Results))
	}

	resp, body = postJSON(t, base+"/knn", map[string]any{"query": query(dim, 0.5), "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knn: status %d body %s", resp.StatusCode, body)
	}
	var knnReply struct {
		Neighbors []struct {
			Dist float64 `json:"dist"`
		} `json:"neighbors"`
	}
	if err := json.Unmarshal(body, &knnReply); err != nil {
		t.Fatalf("knn reply: %v (%s)", err, body)
	}
	if len(knnReply.Neighbors) != 3 {
		t.Fatalf("knn returned %d neighbors, want 3", len(knnReply.Neighbors))
	}

	resp, body = postJSON(t, base+"/range", map[string]any{"query": query(3, 0.5), "r": 0.8})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-dim query: status %d body %s", resp.StatusCode, body)
	}

	sresp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Range struct {
			Queries int64 `json:"queries"`
		} `json:"range"`
		KNN struct {
			Queries int64 `json:"queries"`
		} `json:"knn"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Range.Queries != 1 || stats.KNN.Queries != 1 {
		t.Fatalf("stats: range=%d knn=%d, want 1/1", stats.Range.Queries, stats.KNN.Queries)
	}

	// No -dir: reload must be a clean 501, not a crash.
	resp, body = postJSON(t, base+"/admin/reload", nil)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without -dir: status %d body %s", resp.StatusCode, body)
	}

	shutdown()
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("missing shutdown log:\n%s", out.String())
	}
}

func TestDaemonSnapshotRoundTrip(t *testing.T) {
	const dim = 6
	dir := t.TempDir()

	// First run builds the synthetic index and saves a snapshot.
	base, out, shutdown := startDaemon(t, "-n", "400", "-dim", fmt.Sprint(dim), "-shards", "2", "-dir", dir)
	resp, body := postJSON(t, base+"/admin/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d body %s", resp.StatusCode, body)
	}
	var reload struct {
		Items int   `json:"items"`
		Swaps int64 `json:"swaps"`
	}
	if err := json.Unmarshal(body, &reload); err != nil {
		t.Fatal(err)
	}
	// One swap, the reload's: the packed index put in the built one's place
	// is not counted.
	if reload.Items != 400 || reload.Swaps != 1 {
		t.Fatalf("reload reply: %+v", reload)
	}
	shutdown()
	if !strings.Contains(out.String(), "snapshot saved to "+dir+" in ") || !strings.Contains(out.String(), " B/item on disk)") {
		t.Fatalf("first run did not save a snapshot:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	// The built line counts the index from its arenas: a pointer per leaf
	// item — vectors of one length — and its filter row, whose D1 and D2
	// alone are two 16-bit codes over these distances, at least; and less
	// than an item header and a row did before (38 B/item). The packed
	// index keeps the same slots, pointing into vectors it owns (Own),
	// whose bytes it counts apart: dim floats an item, each item a point.
	built := regexp.MustCompile(`built .*index ([0-9.]+) B/item`).FindStringSubmatch(out.String())
	packed := regexp.MustCompile(`vectors owned in leaf order in [^(]*\(([0-9.]+) B/item; index ([0-9.]+) B/item\)`).FindStringSubmatch(out.String())
	if built == nil || packed == nil {
		t.Fatalf("no index B/item on the built line, or no owned and index B/item on the packed line:\n%s", out.String())
	}
	b, err := strconv.ParseFloat(built[1], 64)
	if err != nil || b <= 8+2*2 || b >= 38 || packed[2] != built[1] || packed[1] != fmt.Sprintf("%.1f", float64(8*dim)) {
		t.Fatalf("the index is %s B/item built and %s packed, beside %s B/item of vectors it owns: want more than a pointer and a filter row, less than 38, the same packed, and %d floats an item owned",
			built[1], packed[2], packed[1], dim)
	}

	// Second run must load from disk, not rebuild.
	base, out2, shutdown2 := startDaemon(t, "-dim", fmt.Sprint(dim), "-dir", dir)
	defer shutdown2()
	if !strings.Contains(out2.String(), "loaded 400 items") || !strings.Contains(out2.String(), "leaf filter step") {
		t.Fatalf("second run did not load the snapshot:\n%s", out2.String())
	}
	resp, body = postJSON(t, base+"/range", map[string]any{"query": query(dim, 0.5), "r": 0.8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range after load: status %d body %s", resp.StatusCode, body)
	}
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	err := run(context.Background(), &bytes.Buffer{}, []string{"-metric", "cosine"}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Fatalf("bad metric: err=%v", err)
	}
	err = run(context.Background(), &bytes.Buffer{}, []string{"-dim", "0"}, nil)
	if err == nil {
		t.Fatal("dim 0 accepted")
	}
	// A negative size reached the dataset generator and panicked there.
	err = run(context.Background(), &bytes.Buffer{}, []string{"-n", "-1"}, nil)
	if err == nil || !strings.Contains(err.Error(), "-n must be non-negative") {
		t.Fatalf("-n -1: err=%v", err)
	}
	// The float32 arena mode is gone: it must fail at start-up, naming
	// the modes that remain, not be silently ignored.
	err = run(context.Background(), &bytes.Buffer{}, []string{"-quantize", "f32"}, nil)
	if err == nil || !strings.Contains(err.Error(), "-quantize") || !strings.Contains(err.Error(), "off, sq8") {
		t.Fatalf("-quantize f32: err=%v", err)
	}
	if _, err := mvptree.ParseQuantizeMode("f32"); err == nil || !strings.Contains(err.Error(), "off, sq8") {
		t.Fatalf("ParseQuantizeMode(f32): err=%v", err)
	}
	// Values a default used to replace silently fail, naming their flag.
	for _, args := range [][]string{
		{"-shards", "-3"},
		{"-shards", "0"},
		{"-maxbatch", "0"},
		{"-queue", "0"},
		{"-workers", "-1"},
		{"-buildworkers", "-1"},
		{"-retryafter", "-1s"},
	} {
		err := run(context.Background(), &bytes.Buffer{}, args, nil)
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+" must be") {
			t.Fatalf("%v: err=%v", args, err)
		}
	}
}

// saveSnapshotAt runs the daemon once at dim into dir and stops it, which
// leaves a committed snapshot there.
func saveSnapshotAt(t *testing.T, dim int, dir string) {
	t.Helper()
	_, _, shutdown := startDaemon(t, "-n", "300", "-dim", fmt.Sprint(dim), "-shards", "2", "-dir", dir)
	shutdown()
}

// A snapshot of another dimension is refused: at start-up, naming both
// dimensions, and on reload, where the old index keeps serving.
func TestDaemonRefusesSnapshotOfOtherDimension(t *testing.T) {
	six, eight := t.TempDir(), t.TempDir()
	saveSnapshotAt(t, 6, six)
	saveSnapshotAt(t, 8, eight)

	// Cancelled up front: a daemon that loaded the snapshot stops at once.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, &bytes.Buffer{}, []string{"-addr", "127.0.0.1:0", "-dim", "8", "-dir", six}, nil)
	if err == nil || !strings.Contains(err.Error(), "6-dimensional") || !strings.Contains(err.Error(), "-dim is 8") {
		t.Fatalf("a 6-dimensional snapshot at -dim 8: err=%v", err)
	}

	base, _, shutdown := startDaemon(t, "-dim", "6", "-dir", six)
	defer shutdown()
	// Both snapshots are a first generation of two shards, so the 8-dim
	// files replace the 6-dim ones name for name.
	entries, err := os.ReadDir(eight)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(eight, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(six, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	resp, body := postJSON(t, base+"/admin/reload", nil)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "8-dimensional vectors, -dim is 6") {
		t.Fatalf("reload of an 8-dimensional snapshot at -dim 6: status %d body %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, base+"/knn", map[string]any{"query": query(6, 0.5), "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knn after the refused reload: status %d body %s", resp.StatusCode, body)
	}
}

// Stopped the moment it is ready, as the benchmark starts and stops it,
// the daemon still commits the snapshot it was writing, and a fresh one
// loads it.
func TestDaemonCommitsSnapshotBeforeExit(t *testing.T) {
	dir := t.TempDir()
	for i := range 3 {
		run := filepath.Join(dir, fmt.Sprint(i))
		_, out, shutdown := startDaemon(t, "-n", "5000", "-dim", "8", "-shards", "2", "-dir", run)
		shutdown()
		if !strings.Contains(out.String(), "snapshot saved to "+run+" in ") {
			t.Fatalf("run %d stopped without reporting its snapshot:\n%s", i, out.String())
		}
		if _, err := os.Stat(filepath.Join(run, "manifest.json")); err != nil {
			t.Fatalf("run %d stopped without committing: %v", i, err)
		}
	}
	_, out, shutdown := startDaemon(t, "-dim", "8", "-dir", filepath.Join(dir, "2"))
	defer shutdown()
	if !strings.Contains(out.String(), "loaded 5000 items") {
		t.Fatalf("the committed snapshot did not load:\n%s", out.String())
	}
}

// A save that fails ends run with its error once the daemon has served,
// and a reload waiting for that save answers with the same error.
func TestDaemonFailedSaveEndsRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "snap")
	// The save is held until the reload waits for it.
	release := make(chan struct{})
	orig := saveSnapshot
	saveSnapshot = func(x *shard.Index[[]float64], dir string, be shard.Backend[[]float64]) error {
		<-release
		return orig(x, dir, be)
	}
	defer func() { saveSnapshot = orig }()

	ready, errc := make(chan string, 1), make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errc <- run(context.Background(), &out, []string{"-addr", "127.0.0.1:0", "-n", "300", "-dim", "6", "-dir", dir}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("run ended before it was ready: %v", err)
	}
	type reply struct {
		status int
		body   string
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(base+"/admin/reload", "application/json", nil)
		if err != nil {
			replies <- reply{body: err.Error()}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		replies <- reply{resp.StatusCode, buf.String()}
	}()
	for deadline := time.Now().Add(30 * time.Second); !strings.Contains(goroutines(), "(*pendingSave).wait"); {
		if time.Now().After(deadline) {
			t.Fatal("the reload never waited for the save")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	var err error
	select {
	case err = <-errc:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not end after its save failed")
	}
	if err == nil || !strings.HasPrefix(err.Error(), "saving snapshot to "+dir+": ") {
		t.Fatalf("run returned %v\noutput:\n%s", err, out.String())
	}
	if r := <-replies; r.status != http.StatusInternalServerError || !strings.Contains(r.body, err.Error()) {
		t.Fatalf("reload waiting for the failed save: status %d body %s", r.status, r.body)
	}
}

// goroutines is the stack of every goroutine in the process.
func goroutines() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}
