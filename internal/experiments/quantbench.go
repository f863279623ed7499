package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"mvptree/internal/bench"
	"mvptree/internal/build"
	"mvptree/internal/dataset"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
	"mvptree/internal/quant"

	"math/rand/v2"
)

// QuantBenchRounds is the number of measured passes over the query
// batch per (structure, mode) cell, after one warm-up pass.
const QuantBenchRounds = 3

// QuantBenchK is the kNN width of the quantbench workload. kNN at this
// width touches most of the dataset at the benchmark's dimensions, so
// it is the bandwidth-bound case the pre-filter targets.
const QuantBenchK = 10

// QuantBenchRow is one (structure, metric, dim, mode) cell of the
// quantized pre-filter study: wall time and distance charges per
// query, plus the survivor rate — the fraction of charged leaf
// candidates that still reached the exact float64 kernel (1.0 when the
// filter is off; lower is better bandwidth savings).
type QuantBenchRow struct {
	Structure string  `json:"structure"`
	Metric    string  `json:"metric"`
	Dim       int     `json:"dim"`
	Radius    float64 `json:"radius"`
	Mode      string  `json:"mode"`
	BuildCost int64   `json:"build_cost"`

	RangeNsPerOp      float64 `json:"range_ns_per_op"`
	RangeDistPerQuery float64 `json:"range_dist_per_query"`
	RangeSurvivorRate float64 `json:"range_survivor_rate"`

	KNNNsPerOp      float64 `json:"knn_ns_per_op"`
	KNNDistPerQuery float64 `json:"knn_dist_per_query"`
	KNNSurvivorRate float64 `json:"knn_survivor_rate"`
}

// QuantBenchReport is the artifact cmd/mvpbench -quantjson writes and
// `benchguard -mode quant` gates on.
type QuantBenchReport struct {
	N       int             `json:"n"`
	Queries int             `json:"queries"`
	Rounds  int             `json:"rounds"`
	K       int             `json:"k"`
	Rows    []QuantBenchRow `json:"rows"`
}

// quantBenchConfig is one workload axis of the study. Radii scale with
// √dim so the range query keeps a comparable selectivity as the
// expected pairwise distance grows.
type quantBenchConfig struct {
	metricName string
	fn         metric.DistanceFunc[[]float64]
	dim        int
	radius     float64
}

// QuantBenchStudy measures the quantized pre-filter off vs on over
// uniform vectors, per metric shape and
// dimension, on the two tree structures that host it plus the linear
// scan at the highest dimension. Every mode answers the same query
// batch; the study verifies result identity in-line (length and kNN
// distances against the mode-off run) before trusting the timings.
// Distance charges are byte-identical by construction — the filter's
// contract — so the comparison axis is purely wall time and the
// survivor rate explains where the time went.
func QuantBenchStudy(c Config) (*QuantBenchReport, error) {
	configs := []quantBenchConfig{
		{"l2", metric.L2, 20, 0.9},
		{"l1", metric.L1, 20, 3.2},
		{"linf", metric.LInf, 20, 0.45},
		{"l2", metric.L2, 50, 2.0},
	}
	rep := &QuantBenchReport{
		N: c.N, Queries: c.Queries, Rounds: QuantBenchRounds, K: QuantBenchK,
	}
	seed := c.TreeSeeds[0]
	for _, qc := range configs {
		rng := rand.New(rand.NewPCG(c.DataSeed, uint64(qc.dim)))
		items := dataset.UniformVectors(rng, c.N, qc.dim)
		queries := dataset.UniformQueries(rng, c.Queries, qc.dim)

		structures := []func(quant.Mode) bench.Structure[[]float64]{
			func(m quant.Mode) bench.Structure[[]float64] {
				if m == quant.Off {
					return bench.MVPT[[]float64](3, 80, 5)
				}
				return bench.MVPTQuantized[[]float64](3, 80, 5, m)
			},
			func(m quant.Mode) bench.Structure[[]float64] {
				if m == quant.Off {
					return bench.VPT[[]float64](3)
				}
				return bench.VPTQuantized[[]float64](3, m)
			},
		}
		for _, mk := range structures {
			// Reference results from the mode-off run, for the in-bench
			// identity check.
			var refRangeLen []int
			var refKNN [][]float64
			for _, mode := range quant.Modes {
				st := mk(mode)
				counter := metric.NewCounter[[]float64](qc.fn)
				idx, bs, err := st.Build(items, counter, build.Options{Seed: seed, Workers: c.BuildWorkers})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", st.Name, err)
				}
				ob := obs.NewObserver(1)
				if h, ok := idx.(interface{ SetObserver(*obs.Observer) }); ok {
					h.SetObserver(ob)
				}
				row := QuantBenchRow{
					Structure: st.Name, Metric: qc.metricName, Dim: qc.dim,
					Radius: qc.radius, Mode: mode.String(), BuildCost: bs.Distances,
				}

				// Warm-up plus the identity check against the off run.
				for qi, q := range queries {
					res := idx.Range(q, qc.radius)
					nn := idx.KNN(q, QuantBenchK)
					dists := make([]float64, len(nn))
					for i, nb := range nn {
						dists[i] = nb.Dist
					}
					if mode == quant.Off {
						refRangeLen = append(refRangeLen, len(res))
						refKNN = append(refKNN, dists)
						continue
					}
					if len(res) != refRangeLen[qi] {
						return nil, fmt.Errorf("%s %s dim=%d q%d: range results %d, mode off returned %d",
							st.Name, qc.metricName, qc.dim, qi, len(res), refRangeLen[qi])
					}
					for i, d := range dists {
						if d != refKNN[qi][i] {
							return nil, fmt.Errorf("%s %s dim=%d q%d: knn distance %d differs from mode off",
								st.Name, qc.metricName, qc.dim, qi, i)
						}
					}
				}

				ops := int64(QuantBenchRounds * len(queries))
				s0 := ob.Snapshot().Search
				ns, _, dist := measureQuantLoop(counter, func() {
					for _, q := range queries {
						idx.Range(q, qc.radius)
					}
				})
				s1 := ob.Snapshot().Search
				row.RangeNsPerOp = float64(ns) / float64(ops)
				row.RangeDistPerQuery = float64(dist) / float64(ops)
				row.RangeSurvivorRate = survivorRate(s1, s0)

				ns, _, dist = measureQuantLoop(counter, func() {
					for _, q := range queries {
						idx.KNN(q, QuantBenchK)
					}
				})
				s2 := ob.Snapshot().Search
				row.KNNNsPerOp = float64(ns) / float64(ops)
				row.KNNDistPerQuery = float64(dist) / float64(ops)
				row.KNNSurvivorRate = survivorRate(s2, s1)

				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep, nil
}

// measureQuantLoop is measureLoop under a name the querybench helper
// does not own; it shares the implementation.
func measureQuantLoop(counter *metric.Counter[[]float64], pass func()) (ns int64, allocs uint64, dist int64) {
	runs := QuantBenchRounds
	return measureN(counter, runs, pass)
}

// survivorRate computes the fraction of charged leaf candidates that
// reached the exact kernel between two snapshots: pruned candidates
// are counted inside Computed (the charge-1 discipline), so the rate
// is 1 − pruned/computed. NaN-guards to 1 when nothing was computed.
func survivorRate(after, before obs.SearchTotals) float64 {
	computed := after.Computed - before.Computed
	pruned := after.FilteredByQuantized - before.FilteredByQuantized
	if computed <= 0 {
		return 1
	}
	r := 1 - float64(pruned)/float64(computed)
	if math.IsNaN(r) {
		return 1
	}
	return r
}

// WriteQuantBench prints the study as a table grouped by workload.
func WriteQuantBench(w io.Writer, rep *QuantBenchReport) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# quantized pre-filter: uniform vectors n=%d, %d queries x %d rounds, k=%d, 1 worker\n",
		rep.N, rep.Queries, rep.Rounds, rep.K)
	fmt.Fprintf(&sb, "%-14s %-6s %4s %6s %14s %12s %9s %14s %12s %9s\n",
		"structure", "metric", "dim", "mode", "range-ns/op", "range-dist", "range-sv", "knn-ns/op", "knn-dist", "knn-sv")
	for _, r := range rep.Rows {
		fmt.Fprintf(&sb, "%-14s %-6s %4d %6s %14.0f %12.1f %9.3f %14.0f %12.1f %9.3f\n",
			r.Structure, r.Metric, r.Dim, r.Mode,
			r.RangeNsPerOp, r.RangeDistPerQuery, r.RangeSurvivorRate,
			r.KNNNsPerOp, r.KNNDistPerQuery, r.KNNSurvivorRate)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
