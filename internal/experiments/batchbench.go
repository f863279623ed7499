package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"strings"

	"mvptree/internal/bench"
	"mvptree/internal/build"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/qexec"
)

// BatchBenchRounds is the number of measured passes over the query
// group per (structure, batch-size) cell, after a warm-up pass
// that doubles as the result-identity check.
const BatchBenchRounds = 5

// BatchBenchQueries is the query-group size of the batchbench
// workload: the serving micro-batch regime the shared traversal
// targets (one collector flush of a loaded daemon).
const BatchBenchQueries = 64

// BatchBenchSelectivity is the range-query selectivity target; the
// radius is calibrated from the dataset's own pairwise-distance
// distribution (bench.CalibrateRadius), so the workload keeps the same
// result density at any dimension.
const BatchBenchSelectivity = 0.02

// BatchBenchSizes are the shared-traversal batch sizes measured
// against the sequential (batch = 1) baseline.
var BatchBenchSizes = []int{8, 64}

// BatchBenchRow is one (structure, batch-size) range-query cell: wall
// time and distance charges per query, plus the speedup over the same
// structure at batch size 1. Distance counts are byte-identical
// across batch sizes by the SearchBatch contract — the study verifies
// that in-line before trusting the timings — so the comparison axis is
// purely wall time.
type BatchBenchRow struct {
	Structure    string  `json:"structure"`
	BatchSize    int     `json:"batch_size"`
	NsPerQuery   float64 `json:"ns_per_query"`
	DistPerQuery float64 `json:"dist_per_query"`
	// Speedup is sequential ns-per-query divided by this row's; 1.0 on
	// the batch-size-1 rows by construction.
	Speedup float64 `json:"speedup"`
}

// BatchBenchReport is the artifact cmd/mvpbench -batchjson writes and
// `benchguard -mode batch` gates on.
type BatchBenchReport struct {
	N       int             `json:"n"`
	Dim     int             `json:"dim"`
	Queries int             `json:"queries"`
	Rounds  int             `json:"rounds"`
	Radius  float64         `json:"radius"`
	Rows    []BatchBenchRow `json:"rows"`
}

// BatchBenchStudy measures shared-traversal batch execution against
// per-query execution over uniform L2 vectors: for the two structures
// implementing SearchBatch it answers one 64-query range group
// sequentially and at each batch size, through the same qexec entry points serve
// uses. The warm-up pass cross-checks byte-identity (results and
// counter deltas) between every batched run and the sequential one, so
// a speedup can never come from answering a different query.
func BatchBenchStudy(c Config) (*BatchBenchReport, error) {
	dim := c.Dim
	if dim <= 0 {
		dim = 20
	}
	rng := rand.New(rand.NewPCG(c.DataSeed, 77))
	items := dataset.UniformVectors(rng, c.N, dim)
	queries := dataset.UniformQueries(rng, BatchBenchQueries, dim)
	radius, err := bench.CalibrateRadius(rng, items, metric.L2, BatchBenchSelectivity, 0)
	if err != nil {
		return nil, err
	}
	rep := &BatchBenchReport{
		N: c.N, Dim: dim, Queries: len(queries),
		Rounds: BatchBenchRounds, Radius: radius,
	}
	seed := c.TreeSeeds[0]
	structures := []bench.Structure[[]float64]{
		bench.MVPT[[]float64](3, 80, 5),
		bench.VPT[[]float64](3),
	}
	for _, st := range structures {
		counter := metric.NewCounter[[]float64](metric.L2)
		idx, _, err := st.Build(items, counter, build.Options{Seed: seed, Workers: c.BuildWorkers})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.Name, err)
		}
		if index.CapabilitiesOf[[]float64](idx).Batch == nil {
			return nil, fmt.Errorf("%s: structure does not implement SearchBatch", st.Name)
		}
		var seqNs float64
		for _, b := range append([]int{1}, BatchBenchSizes...) {
			opts := qexec.Options{Workers: 1, Batch: b}
			row := BatchBenchRow{Structure: st.Name, BatchSize: b}
			// Warm-up + identity: the batched answer must equal the
			// sequential one item for item, at the same distance cost.
			counter.Reset()
			ref, _, _ := qexec.RunRange[[]float64](idx, queries, radius, qexec.Options{Workers: 1})
			refDist := counter.Count()
			counter.Reset()
			got, _, _ := qexec.RunRange[[]float64](idx, queries, radius, opts)
			if !reflect.DeepEqual(got, ref) || counter.Count() != refDist {
				return nil, fmt.Errorf("%s range B=%d: batched run diverged from sequential", st.Name, b)
			}
			ns, _, dist := measureN(counter, BatchBenchRounds, func() {
				qexec.RunRange[[]float64](idx, queries, radius, opts)
			})
			ops := int64(BatchBenchRounds * len(queries))
			row.NsPerQuery = float64(ns) / float64(ops)
			row.DistPerQuery = float64(dist) / float64(ops)
			if b == 1 {
				seqNs = row.NsPerQuery
				row.Speedup = 1
			} else if row.NsPerQuery > 0 {
				row.Speedup = seqNs / row.NsPerQuery
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// WriteBatchBench prints the study as a table grouped by structure.
func WriteBatchBench(w io.Writer, rep *BatchBenchReport) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# shared-traversal batching: uniform vectors n=%d dim=%d, %d-query range group x %d rounds, r=%.3f, 1 worker\n",
		rep.N, rep.Dim, rep.Queries, rep.Rounds, rep.Radius)
	fmt.Fprintf(&sb, "%-12s %6s %14s %12s %9s\n",
		"structure", "batch", "ns/query", "dist/query", "speedup")
	for _, r := range rep.Rows {
		fmt.Fprintf(&sb, "%-12s %6d %14.0f %12.1f %8.2fx\n",
			r.Structure, r.BatchSize, r.NsPerQuery, r.DistPerQuery, r.Speedup)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
