package experiments

import (
	"fmt"
	"io"
	"strings"

	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// FilterRow aggregates the mvp-tree's per-query filtering breakdown at
// one query radius: of all leaf candidates touched, what fraction each
// stage resolved. It is Observation 2 measured directly — the paper
// argues the pre-computed distances "provide further filtering at the
// leaf level"; this experiment shows how much of the work each filter
// absorbs.
type FilterRow struct {
	Radius float64
	// Candidates is the average number of leaf points considered per
	// query.
	Candidates float64
	// DFrac, PathFrac and ComputedFrac partition the candidates: share
	// excluded by the leaf's exact D1/D2 distances, share additionally
	// excluded by a retained PATH distance, share that required a real
	// distance computation.
	DFrac, PathFrac, ComputedFrac float64
	// VantageShare is the fraction of all distance computations spent
	// on vantage points rather than leaf candidates (Observation 1: the
	// mvp-tree keeps this low by sharing vantage points).
	VantageShare float64
}

// FilterStudy runs mvpt(3,80,p=5) over the uniform vector workload and
// reports the filtering breakdown per Figure 8 radius, averaged over
// seeds and queries.
func FilterStudy(c Config) ([]FilterRow, error) {
	items := c.UniformVectors()
	queries := c.VectorQueries()
	rows := make([]FilterRow, len(Fig8Radii))
	for i, r := range Fig8Radii {
		rows[i].Radius = r
	}
	for _, seed := range c.TreeSeeds {
		counter := metric.NewCounter[[]float64](metric.L2)
		tree, err := mvp.New(items, counter, mvp.Options{
			Partitions: 3, LeafCapacity: 80, PathLength: 5, RandomFirstVantage: true, // the paper's tree, as bench.MVPT
			Build: mvp.Build{Seed: seed, Workers: c.BuildWorkers},
		})
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			for i, r := range Fig8Radii {
				_, s := tree.RangeWithStats(q, r)
				rows[i].Candidates += float64(s.Candidates)
				rows[i].DFrac += float64(s.FilteredByD)
				rows[i].PathFrac += float64(s.FilteredByPath)
				rows[i].ComputedFrac += float64(s.Computed)
				if total := s.Computed + s.VantagePoints; total > 0 {
					rows[i].VantageShare += float64(s.VantagePoints) / float64(total)
				}
			}
		}
	}
	norm := float64(len(c.TreeSeeds) * len(queries))
	for i := range rows {
		if rows[i].Candidates > 0 {
			rows[i].DFrac /= rows[i].Candidates
			rows[i].PathFrac /= rows[i].Candidates
			rows[i].ComputedFrac /= rows[i].Candidates
		}
		rows[i].Candidates /= norm
		rows[i].VantageShare /= norm
	}
	return rows, nil
}

// WriteFilterRows prints the breakdown table.
func WriteFilterRows(w io.Writer, rows []FilterRow) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %12s %10s %10s %10s %12s\n",
		"r", "candidates", "D1/D2", "PATH", "computed", "vantage-share")
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-8.3g %12.1f %9.1f%% %9.1f%% %9.1f%% %11.1f%%\n",
			row.Radius, row.Candidates, 100*row.DFrac, 100*row.PathFrac,
			100*row.ComputedFrac, 100*row.VantageShare)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
