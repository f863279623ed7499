package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mvptree/internal/bench"
	"mvptree/internal/build"
	"mvptree/internal/metric"
	"mvptree/internal/obs"
	"mvptree/internal/qexec"
)

// TelemetryRadius and TelemetryK are the fixed query parameters of the
// telemetry study: one mid-sweep range radius (Figure 8's middle value)
// and the largest swept neighbor count.
var (
	TelemetryRadius = Fig8Radii[len(Fig8Radii)/2]
	TelemetryK      = KNNKs[len(KNNKs)-1]
)

// TelemetryEntry is one structure's merged query telemetry over the
// whole workload: the full Observer snapshot plus the wall time of the
// two query batches.
type TelemetryEntry struct {
	Structure string        `json:"structure"`
	BuildCost int64         `json:"build_cost"`
	RangeWall time.Duration `json:"range_wall_ns"`
	KNNWall   time.Duration `json:"knn_wall_ns"`
	Snapshot  obs.Snapshot  `json:"snapshot"`
}

// TelemetryReport is the per-structure query telemetry of the uniform
// vector workload, with the run configuration needed to interpret it.
type TelemetryReport struct {
	N          int              `json:"n"`
	Dim        int              `json:"dim"`
	Queries    int              `json:"queries"`
	Workers    int              `json:"workers"`
	Radius     float64          `json:"radius"`
	K          int              `json:"k"`
	Structures []TelemetryEntry `json:"structures"`
}

// TelemetryStudy runs the §3.2 structure line-up over the uniform
// vector workload with a fresh Observer per structure, answering one
// range batch (r = TelemetryRadius) and one kNN batch
// (k = TelemetryK), and returns every structure's merged snapshot. The
// study uses the first construction seed only: telemetry is about the
// shape of one run's work, not seed-averaged cost (the figure
// experiments cover that).
func TelemetryStudy(c Config) (*TelemetryReport, error) {
	items := c.UniformVectors()
	queries := c.VectorQueries()
	structures := []bench.Structure[[]float64]{
		bench.Linear[[]float64](),
		bench.VPT[[]float64](2),
		bench.MVPT[[]float64](3, 80, 5),
		bench.GNAT[[]float64](8),
		bench.BallTree[[]float64](8),
		bench.LAESA[[]float64](32),
	}
	workers := c.QueryWorkers
	if workers < 1 {
		workers = 1
	}
	rep := &TelemetryReport{
		N: c.N, Dim: c.Dim, Queries: len(queries), Workers: workers,
		Radius: TelemetryRadius, K: TelemetryK,
	}
	seed := c.TreeSeeds[0]
	for _, st := range structures {
		counter := metric.NewCounter[[]float64](metric.L2)
		idx, bs, err := st.Build(items, counter, build.Options{Seed: seed, Workers: c.BuildWorkers})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.Name, err)
		}
		o := obs.NewObserver(workers)
		opts := qexec.Options{Workers: workers, Observer: o}
		_, rstats, err := qexec.RunRange(idx, queries, TelemetryRadius, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: range batch: %w", st.Name, err)
		}
		_, kstats, err := qexec.RunKNN(idx, queries, TelemetryK, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: knn batch: %w", st.Name, err)
		}
		rep.Structures = append(rep.Structures, TelemetryEntry{
			Structure: st.Name,
			BuildCost: bs.Distances,
			RangeWall: rstats.Wall,
			KNNWall:   kstats.Wall,
			Snapshot:  o.Snapshot(),
		})
	}
	return rep, nil
}

// WriteTelemetry prints the headline per-structure telemetry: average
// distance computations per query, filter efficacy shares, and latency
// quantiles.
func WriteTelemetry(w io.Writer, rep *TelemetryReport) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# uniform vectors n=%d dim=%d, %d queries, r=%g k=%d, %d workers\n",
		rep.N, rep.Dim, rep.Queries, rep.Radius, rep.K, rep.Workers)
	fmt.Fprintf(&sb, "%-12s %12s %10s %10s %10s %12s %12s\n",
		"structure", "dist/query", "shell", "D1/D2", "PATH", "range-p99", "knn-p99")
	for _, e := range rep.Structures {
		s := e.Snapshot
		perQuery := 0.0
		if s.Queries > 0 {
			perQuery = float64(s.Distances) / float64(s.Queries)
		}
		fmt.Fprintf(&sb, "%-12s %12.1f %10d %10d %10d %12s %12s\n",
			e.Structure, perQuery,
			s.Search.ShellsPruned, s.Search.FilteredByD, s.Search.FilteredByPath,
			s.Range.P99, s.KNN.P99)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
