package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/shard"
)

// ShardBenchRounds is the number of measured passes over the query
// batch per configuration (after one warm-up pass).
const ShardBenchRounds = 3

// ShardQueryWorkerCounts is the default intra-query fan-out sweep
// (applied at shard counts >= 2; one shard is measured at W=1 only).
var ShardQueryWorkerCounts = []int{1, 2, 4, 8}

// ShardCounts is the default shard-count sweep (1 = the unsharded
// baseline tree, measured through the same harness).
var ShardCounts = []int{1, 2, 4, 8}

// ShardWorkerPoint is one (query-worker count) cell of a shard row:
// serving wall time per query for the range fan-out.
type ShardWorkerPoint struct {
	Workers      int     `json:"workers"`
	RangeNsPerOp float64 `json:"range_ns_per_op"`
}

// ShardBenchRow is one shard count's build and serving costs.
type ShardBenchRow struct {
	Shards          int   `json:"shards"`
	BuildWallNs     int64 `json:"build_wall_ns"`
	BuildDistances  int64 `json:"build_distances"`
	AssignDistances int64 `json:"assign_distances"`

	// RangeDistPerQuery is identical at every worker count (the range
	// fan-out is deterministic); KNNSeqDistPerQuery and KNNNsPerOp are
	// the sequential carried-τ walk's count and wall time, which do not
	// depend on the worker count.
	RangeDistPerQuery  float64            `json:"range_dist_per_query"`
	KNNSeqDistPerQuery float64            `json:"knn_seq_dist_per_query"`
	KNNNsPerOp         float64            `json:"knn_ns_per_op"`
	Points             []ShardWorkerPoint `json:"points"`
}

// ShardBenchReport is the artifact cmd/mvpbench -shardjson writes.
type ShardBenchReport struct {
	N            int             `json:"n"`
	Dim          int             `json:"dim"`
	Queries      int             `json:"queries"`
	Rounds       int             `json:"rounds"`
	Radius       float64         `json:"radius"`
	K            int             `json:"k"`
	BuildWorkers int             `json:"build_workers"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	Assignment   string          `json:"assignment"`
	Rows         []ShardBenchRow `json:"rows"`
}

// ShardBenchStudy measures the sharded serving layer: for each shard
// count it builds a partitioned mvp-tree index (balanced assignment)
// and reports build wall time, per-query serving time for the range
// fan-out across the intra-query worker sweep (shard counts >= 2) and
// for the sequential kNN walk, and the deterministic distance counts.
// Wall-clock speedups require real cores (see GOMAXPROCS in the
// report); distance-count behavior is machine-independent.
func ShardBenchStudy(c Config) (*ShardBenchReport, error) {
	items := c.UniformVectors()
	queries := c.VectorQueries()
	shardCounts := c.ShardCounts
	if len(shardCounts) == 0 {
		shardCounts = ShardCounts
	}
	workerCounts := c.ShardQueryWorkers
	if len(workerCounts) == 0 {
		workerCounts = ShardQueryWorkerCounts
	}
	bw := c.BuildWorkers
	if bw < 1 {
		bw = 1
	}
	rep := &ShardBenchReport{
		N: c.N, Dim: c.Dim, Queries: len(queries), Rounds: ShardBenchRounds,
		Radius: TelemetryRadius, K: TelemetryK,
		BuildWorkers: bw, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Assignment: shard.Balanced.String(),
	}
	opts := mvp.Options{Partitions: 3, LeafCapacity: 80, PathLength: 5}
	seed := c.TreeSeeds[0]
	for _, s := range shardCounts {
		counter := metric.NewCounter[[]float64](metric.L2)
		buildStart := time.Now()
		x, bs, err := shard.NewWithStats(items, counter, shard.MVP[[]float64](opts), shard.Options{
			Shards: s, Assignment: shard.Balanced, Workers: bw, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", s, err)
		}
		row := ShardBenchRow{
			Shards:          s,
			BuildWallNs:     time.Since(buildStart).Nanoseconds(),
			BuildDistances:  bs.Stats.Distances,
			AssignDistances: bs.AssignDistances,
		}

		// Warm-up pass (fills per-shard scratch pools), plus the
		// deterministic counts measured once.
		for _, q := range queries {
			x.Range(q, TelemetryRadius)
		}
		before := counter.Count()
		for _, q := range queries {
			x.Range(q, TelemetryRadius)
		}
		row.RangeDistPerQuery = float64(counter.Count()-before) / float64(len(queries))
		ops := int64(ShardBenchRounds * len(queries))
		before = counter.Count()
		start := time.Now()
		for round := 0; round < ShardBenchRounds; round++ {
			for _, q := range queries {
				x.KNNWithStats(q, TelemetryK)
			}
		}
		row.KNNNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(ops)
		row.KNNSeqDistPerQuery = float64(counter.Count()-before) / float64(ops)

		// W is the cross-shard fan-out width, so it is swept only where
		// there is more than one shard to fan out over.
		sweep := workerCounts
		if s < 2 {
			sweep = []int{1}
		}
		for _, w := range sweep {
			start := time.Now()
			for round := 0; round < ShardBenchRounds; round++ {
				for _, q := range queries {
					x.Search(index.Query[[]float64]{Point: q, Radius: TelemetryRadius,
						Opts: index.SearchOptions{Workers: w}})
				}
			}
			row.Points = append(row.Points, ShardWorkerPoint{
				Workers:      w,
				RangeNsPerOp: float64(time.Since(start).Nanoseconds()) / float64(ops),
			})
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// WriteShardBench prints the shard scaling study as one row per
// (shards, workers) cell.
func WriteShardBench(w io.Writer, rep *ShardBenchReport) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# uniform vectors n=%d dim=%d, %d queries, r=%g k=%d, %s assignment, GOMAXPROCS=%d\n",
		rep.N, rep.Dim, rep.Queries, rep.Radius, rep.K, rep.Assignment, rep.GOMAXPROCS)
	fmt.Fprintf(&sb, "%-7s %8s %12s %12s %12s %12s %14s\n",
		"shards", "workers", "range-ns/op", "knn-ns/op", "range-dist", "knn-seq-dist", "build-wall")
	for _, row := range rep.Rows {
		for _, pt := range row.Points {
			fmt.Fprintf(&sb, "%-7d %8d %12.0f %12.0f %12.1f %12.1f %14s\n",
				row.Shards, pt.Workers, pt.RangeNsPerOp, row.KNNNsPerOp,
				row.RangeDistPerQuery, row.KNNSeqDistPerQuery,
				time.Duration(row.BuildWallNs).Round(time.Millisecond))
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
