// Command benchmark is the repository's one benchmark: five named
// workloads, the end-to-end metrics a user of the stack sees, and a
// per-layer ledger measured from outside the program. BENCHMARK.json at
// the repository root declares every workload and metric; README.md in
// this directory explains them.
//
// Usage (from the repository root; run.sh builds and forwards its
// arguments):
//
//	bash benchmark/run.sh --workload uniform-l2 --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1 --trace 1 --out result.json --traceout trace.json
//	bash benchmark/run.sh --compare a.json b.json
//
// With --workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Every workload
// is measured with tracing off; --trace 1 adds the traced pass after
// it. Without --workload every workload runs and the last line is the
// whole result set.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// procs is the parallelism used everywhere: GOMAXPROCS, shards,
// executor workers, build workers and HTTP connections.
const procs = 2

// sizes are the input sizes of a run. The smoke test shrinks them.
type sizes struct {
	N            int // items in the static workloads and the daemon
	ChurnN       int // initial items of dynamic-churn
	ChurnSpare   int // held-out words dynamic-churn inserts
	Pool         int // distinct queries per workload
	TraceQ       int // queries replayed through every layer
	TraceQSlow   int // the same where a call costs ten times more: words, HTTP
	ChurnTraceOp int // operations of the traced dynamic-churn replay
	Builds       int // fresh in-process builds behind setup_s
	DaemonStarts int // daemon starts behind setup_s on serve-mixed
	Warm         time.Duration
	ServeRate    float64 // offered requests per second on serve-mixed
}

var fullSizes = sizes{
	N: 50000, ChurnN: 5000, ChurnSpare: 2500, Pool: 256,
	TraceQ: 128, TraceQSlow: 64, ChurnTraceOp: 10000,
	Builds: 11, DaemonStarts: 9, Warm: 2 * time.Second, ServeRate: 40,
}

// env is what a workload run is given.
type env struct {
	seed    uint64
	seconds float64
	sz      sizes
	root    string // checkout root
	tmp     string // scratch directory inside the checkout
	daemon  string // built mvpserve binary; see daemonBinary
}

// report collects what one workload run produced.
type report struct {
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Mismatches []string           `json:"mismatches,omitempty"` // op ids of wrong answers and errors
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples"` // sample count behind a timing metric
	WallS      float64            `json:"wall_s"`
	LateP99Us  float64            `json:"generator_late_p99_us,omitempty"`

	rec    *recorder
	setups []float64 // wall seconds of each set-up
}

func newReport() *report {
	return &report{Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.Metrics[name] = v }

// timing stores a latency metric together with its sample count.
func (r *report) timing(name string, v float64, samples int) {
	r.Metrics[name] = v
	r.Samples[name] = samples
}

// fail records one failed operation by id.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Mismatches) < 64 {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

// measured reports what the measured phase saw. The wall-clock rows
// are percentiles pooled over every correct query, each sample as it
// was timed, and the correct queries over the phase's wall time; they
// carry the prefix wall. because they are declared without a bound
// (README.md, "Wall-clock rows"). dists_per_query is the distance
// computations the program made during the phase over the same queries.
func (r *report) measured(rangeUs, knnUs []float64, wall time.Duration, dists int64) {
	r.timing("wall.range_p50_us", percentile(rangeUs, 0.50), len(rangeUs))
	r.timing("wall.range_p90_us", percentile(rangeUs, 0.90), len(rangeUs))
	r.timing("wall.knn_p50_us", percentile(knnUs, 0.50), len(knnUs))
	r.timing("wall.knn_p90_us", percentile(knnUs, 0.90), len(knnUs))
	queries := len(rangeUs) + len(knnUs)
	r.timing("wall.queries_per_s", float64(queries)/wall.Seconds(), queries)
	r.timing("dists_per_query", float64(dists)/float64(queries), queries)
}

// finishSetup reports setup_s: the median of the set-ups.
func (r *report) finishSetup() {
	r.timing("setup_s", median(r.setups), len(r.setups))
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup generates the inputs from the seed, computes the oracle and
	// builds the index as a user would, several times (setup_s,
	// mem_bytes_per_item).
	setup(e *env, rep *report) error
	// measure runs the workload with tracing off for d and checks every
	// answer after its clock has stopped.
	measure(e *env, rep *report, d time.Duration) error
	// traced replays queries through every layer with the recorder on.
	traced(e *env, rep *report) error
	// close releases what setup started.
	close()
}

var workloads = map[string]func() workload{
	"uniform-l2":      newUniformL2,
	"words-edit":      newWordsEdit,
	"batch-clustered": newBatchClustered,
	"serve-mixed":     newServeMixed,
	"dynamic-churn":   newDynamicChurn,
}

// runWorkload runs one workload: set-up, the untraced measurement for
// measureS seconds, then the traced pass when trace is set.
func runWorkload(e *env, name string, measureS float64, trace bool) (*report, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	start := time.Now()
	rep := newReport()
	w := mk()
	defer w.close()
	if err := w.setup(e, rep); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	if err := w.measure(e, rep, time.Duration(measureS*float64(time.Second))); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if trace {
		rep.rec = newRecorder()
		if err := w.traced(e, rep); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", name, err)
		}
		if err := rep.rec.check(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	rep.finishSetup()
	rep.WallS = time.Since(start).Seconds()
	return rep, nil
}

// header describes the run a result file came from.
type header struct {
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Traced     bool    `json:"traced"`
	TotalWallS float64 `json:"total_wall_s"`
}

// resultFile is what --out writes and --compare reads.
type resultFile struct {
	Header    header             `json:"header"`
	Workloads map[string]*report `json:"workloads"`
}

// metricValue is one metric on the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders rep as the declared metrics of one kind. Every declared
// end-to-end metric must have been measured; a per-layer metric whose
// layer is not on the workload's path reads 0.
func line(rep *report, declared []metricSpec, endToEnd bool) (driverLine, error) {
	out := driverLine{
		Correct:   rep.Failed == 0,
		Attempted: max(rep.Attempted, 1),
		Failed:    rep.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range declared {
		v, ok := rep.Metrics[m.Name]
		if !ok && endToEnd {
			return out, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// undeclared lists metrics a run produced that BENCHMARK.json does not name.
func undeclared(rep *report, sp *spec) []string {
	var out []string
	for name := range rep.Metrics {
		if _, ok := sp.find(name); !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// printReport lists every metric a run produced by name, with its unit.
func printReport(name string, rep *report, sp *spec) {
	fmt.Printf("== %s: attempted %d, failed %d, wall %.1f s\n", name, rep.Attempted, rep.Failed, rep.WallS)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m, _ := sp.find(n)
		samples := ""
		if c, ok := rep.Samples[n]; ok {
			samples = fmt.Sprintf("  (%d samples)", c)
		}
		fmt.Printf("%-34s %16.4f %-8s%s\n", n, rep.Metrics[n], m.Unit, samples)
	}
	for _, id := range rep.Mismatches {
		fmt.Printf("FAILED %s\n", id)
	}
}

// findRoot walks up from the working directory to the checkout root:
// the directory holding BENCHMARK.json and the module's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, errSpec := os.Stat(filepath.Join(dir, "BENCHMARK.json"))
		_, errMod := os.Stat(filepath.Join(dir, "go.mod"))
		if errSpec == nil && errMod == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no directory above the working directory holds BENCHMARK.json and go.mod")
		}
		dir = parent
	}
}

// commit names the checkout's commit, or "unknown" outside a git repository.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload and end with the driver's result line (default: all)")
		seed         = fs.Uint64("seed", 1, "seed of every generated input")
		seconds      = fs.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
		trace        = fs.Int("trace", 0, "1 adds the traced per-layer pass after the measurement")
		outPath      = fs.String("out", "", "write the result set, with its run header, to this file")
		tracePath    = fs.String("traceout", "", "write the recorded spans to this file (with --trace 1)")
		compare      = fs.Bool("compare", false, "compare two result files against the bounds: --compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("--compare takes two result files")
		}
		return compareFiles(os.Stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if runtime.NumCPU() < procs {
		return fmt.Errorf("the benchmark needs %d CPUs, this machine has %d", procs, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(procs)

	tmp := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: *seed, seconds: *seconds, sz: fullSizes, root: root, tmp: tmp}

	start := time.Now()
	results := resultFile{Workloads: map[string]*report{}}
	var traces []traceFile
	names := sp.workloadNames()
	if *workloadName != "" {
		names = []string{*workloadName}
	}
	for _, name := range names {
		rep, err := runWorkload(e, name, *seconds, *trace == 1)
		if err != nil {
			return err
		}
		if extra := undeclared(rep, sp); len(extra) > 0 {
			return fmt.Errorf("%s: metrics not declared in BENCHMARK.json: %v", name, extra)
		}
		results.Workloads[name] = rep
		printReport(name, rep, sp)
		if rep.rec != nil {
			traces = append(traces, traceFile{Workload: name, SelfNs: rep.rec.selfTimes(), Spans: rep.rec.spans})
		}
	}
	results.Header = header{
		Commit: commit(root), Seed: *seed, Seconds: *seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Traced: *trace == 1, TotalWallS: time.Since(start).Seconds(),
	}
	if *tracePath != "" && len(traces) > 0 {
		if err := writeTrace(*tracePath, traces); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(results)
	if err != nil {
		return err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *workloadName == "" {
		fmt.Println(string(raw))
		return nil
	}
	declared, endToEnd := sp.EndToEnd, true
	if *trace == 1 {
		declared, endToEnd = sp.PerLayer, false
	}
	dl, err := line(results.Workloads[*workloadName], declared, endToEnd)
	if err != nil {
		return err
	}
	raw, err = json.Marshal(dl)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}
