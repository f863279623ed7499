package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrink every workload to a second or two.
var smokeSizes = sizes{
	N: 2000, ChurnN: 600, ChurnSpare: 300, Pool: 32,
	TraceQ: 16, TraceQSlow: 8, ChurnTraceOp: 1500,
	Builds: 2, DaemonStarts: 1, Warm: 100 * time.Millisecond, ServeRate: 60,
}

func TestSelfTimes(t *testing.T) {
	// root 0..100 holds a 10..40 and b 50..90; a holds c 20..30. Two
	// spans side by side under b (60..80 each) keep their own time.
	r := &recorder{spans: []span{
		{ID: 0, Parent: noSpan, Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "b", Start: 50, End: 90},
		{ID: 3, Parent: 1, Layer: "c", Start: 20, End: 30},
		{ID: 4, Parent: 2, Layer: "d", Start: 60, End: 80},
		{ID: 5, Parent: 2, Layer: "d", Start: 60, End: 80},
	}}
	want := map[string]float64{"bench": 30, "a": 20, "b": 20, "c": 10, "d": 40}
	if got := r.selfTimes(); !maps.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// childDaemons lists live mvpserve processes started by this process.
func childDaemons(t *testing.T) []string {
	t.Helper()
	var out []string
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range stats {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the process ended while we looked
		}
		// pid (comm) state ppid ...
		open, shut := strings.IndexByte(string(raw), '('), strings.LastIndexByte(string(raw), ')')
		if open < 0 || shut < open {
			continue
		}
		fields := strings.Fields(string(raw[shut+1:]))
		if len(fields) < 2 || string(raw[open+1:shut]) != "mvpserve" {
			continue
		}
		if ppid, _ := strconv.Atoi(fields[1]); ppid == os.Getpid() && fields[0] != "Z" {
			out = append(out, path)
		}
	}
	return out
}

// TestSmoke runs every workload, measured and traced, at smoke size and
// checks the contract between the program and BENCHMARK.json.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %v", m.Name, metricName)
		}
	}
	if len(sp.workloadNames()) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(sp.workloadNames()), len(workloads))
	}

	e := &env{seed: 1, seconds: 0.5, sz: smokeSizes, root: root, tmp: t.TempDir()}
	produced := map[string]bool{}
	var traces []traceFile
	for _, name := range sp.workloadNames() {
		e.seconds = 0.5
		if name == "serve-mixed" {
			e.seconds = 2
		}
		rep, err := runWorkload(e, name, e.seconds, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", name, rep.Attempted, rep.Failed, rep.Mismatches)
		}
		if extra := undeclared(rep, sp); len(extra) > 0 {
			t.Errorf("%s: metrics not declared in BENCHMARK.json: %v", name, extra)
		}
		dl, err := line(rep, sp.EndToEnd, true)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for m, v := range dl.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
			}
		}
		for m := range rep.Metrics {
			produced[m] = true
		}
		// Where every call is made from one goroutine the layers' self
		// times add up to the traced pass: a span that leaks out of its
		// parent or overlaps a sibling breaks the sum. On serve-mixed the
		// two connections run side by side, so there it is a floor only.
		selfSum := 0.0
		for _, ns := range rep.rec.selfTimes() {
			selfSum += ns
		}
		root := rep.rec.spans[0]
		if cover := selfSum / float64(root.End-root.Start); cover < 0.95 || (cover > 1.05 && name != "serve-mixed") {
			t.Errorf("%s: layer self times cover %.3f of the traced pass, want within 5%% of 1", name, cover)
		}
		traces = append(traces, traceFile{Workload: name, SelfNs: rep.rec.selfTimes(), Spans: rep.rec.spans})
		if left := childDaemons(t); len(left) > 0 {
			t.Errorf("%s: daemon subprocess not reaped: %v", name, left)
		}
	}
	for _, m := range sp.PerLayer {
		if !produced[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload produced it", m.Name)
		}
	}

	// The trace file parses and every span's parent exists.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, traces); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []traceFile
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	for _, tf := range back {
		ids := map[int]bool{}
		for _, s := range tf.Spans {
			ids[s.ID] = true
		}
		for _, s := range tf.Spans {
			if s.Parent != noSpan && !ids[s.Parent] {
				t.Errorf("%s: span %d (%s/%s) is an orphan", tf.Workload, s.ID, s.Layer, s.Op)
			}
			if s.End < s.Start {
				t.Errorf("%s: span %d (%s/%s) never ended", tf.Workload, s.ID, s.Layer, s.Op)
			}
		}
	}
}

// TestCompare checks the bound, failure and exact-count rules of --compare.
func TestCompare(t *testing.T) {
	sp := &spec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "lat_us", Unit: "us", Better: "lower", Bound: 0.1}, {Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.1}},
		PerLayer:  []metricSpec{{Name: "mvp.range_dist_frac", Unit: "ratio", Better: "lower"}},
	}
	write := func(lat, qps, frac float64, failed int) string {
		rf := resultFile{Header: header{Seed: 1}, Workloads: map[string]*report{"w": {
			Attempted: 10, Failed: failed,
			Metrics: map[string]float64{"lat_us": lat, "qps": qps, "mvp.range_dist_frac": frac},
		}}}
		raw, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(100, 50, 0.5, 0)
	rewrite := func(path string, edit func(rf *resultFile)) string {
		rf, err := readResults(path)
		if err != nil {
			t.Fatal(err)
		}
		edit(rf)
		raw, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct {
		name   string
		a, b   string
		breach bool
	}{
		{"workload missing", base, rewrite(write(100, 50, 0.5, 0), func(rf *resultFile) { delete(rf.Workloads, "w") }), true},
		{"end-to-end metric missing", base, rewrite(write(100, 50, 0.5, 0), func(rf *resultFile) { delete(rf.Workloads["w"].Metrics, "qps") }), true},
		{"per-layer metric missing", base, rewrite(write(100, 50, 0.5, 0), func(rf *resultFile) { delete(rf.Workloads["w"].Metrics, "mvp.range_dist_frac") }), false},
		{"worse than a baseline of 0", write(0, 50, 0.5, 0), write(1, 50, 0.5, 0), true},
		{"baseline of 0 kept", write(0, 50, 0.5, 0), write(0, 50, 0.5, 0), false},
	} {
		var out strings.Builder
		err := compareFiles(&out, sp, c.a, c.b)
		if (err != nil) != c.breach {
			t.Errorf("%s: breach = %v, want %v\n%s", c.name, err != nil, c.breach, out.String())
		}
	}
	for _, c := range []struct {
		name           string
		lat, qps, frac float64
		failed         int
		breach         bool
	}{
		{"within bounds", 109, 46, 0.5, 0, false},
		{"better", 50, 80, 0.5, 0, false},
		{"latency worse", 111, 50, 0.5, 0, true},
		{"throughput worse", 100, 44, 0.5, 0, true},
		{"count differs", 100, 50, 0.5001, 0, true},
		{"more failures", 100, 50, 0.5, 1, true},
	} {
		var out strings.Builder
		err := compareFiles(&out, sp, base, write(c.lat, c.qps, c.frac, c.failed))
		if (err != nil) != c.breach {
			t.Errorf("%s: breach = %v, want %v\n%s", c.name, err != nil, c.breach, out.String())
		}
	}
}
