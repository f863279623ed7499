package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"time"

	"mvptree/internal/bench"
	"mvptree/internal/build"
	"mvptree/internal/index"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/pgm"
)

// The structure study ranks every index structure of the repository on
// the two costs a query pays, distance computations and time, in ten
// cells: range and kNN queries on uniform and clustered vectors (L2),
// words (edit distance) and images (L1 and L2). A structure is
// dominated in a cell when another computes no more distances, takes no
// more time, and is strictly better on one of the two.

const (
	// StructureSelectivity is the range queries' expected answer share,
	// from which bench.CalibrateRadius derives each radius (words use
	// r = 1 instead: edit distances are integers).
	StructureSelectivity = 0.02
	// StructureK is the kNN queries' neighbor count.
	StructureK = 10
	// StructurePasses is how many times each query batch runs on one
	// goroutine; the fastest pass is the time reported.
	StructurePasses = 3
	// structureSeeds is how many of Config.TreeSeeds the study builds on.
	structureSeeds = 2
)

// StructureRow is one structure's costs in one cell, averaged over the
// construction seeds.
type StructureRow struct {
	Structure string
	// Distances is the distance computations per query.
	Distances float64
	// NsPerQuery is the fastest pass's wall time per query.
	NsPerQuery float64
	// BuildDistances is the construction's distance computations.
	BuildDistances float64
	// DominatedBy names the structures of the cell that dominate this one.
	DominatedBy []string
}

// StructureCell is one workload and query kind.
type StructureCell struct {
	Workload string // dataset and metric
	Query    string // "range r=…" or "knn k=…"
	Rows     []StructureRow
}

// StructureReport is the structure study's table.
type StructureReport struct {
	Seeds []uint64
	Cells []StructureCell
}

// comparisonStructures is the line-up every cell measures: the scan,
// the paper's trees and every other structure the repository builds.
func comparisonStructures[T any]() []bench.Structure[T] {
	return []bench.Structure[T]{
		bench.Linear[T](),
		bench.VPT[T](2),
		bench.VPT[T](3),
		bench.MVPT[T](3, 80, 5),
		bench.GMVPT[T](3, 2, 16, 5),
		bench.GNAT[T](8),
		bench.BallTree[T](8),
		bench.LAESA[T](32),
	}
}

// StructureStudy measures every structure in every cell on the first
// two construction seeds. Queries run on one goroutine, outside the
// bench harness's job pool, so no concurrent job skews a time. Every
// answer is checked against the linear scan: a range count or a kNN
// distance list that differs is an error.
func StructureStudy(c Config) (*StructureReport, error) {
	seeds := c.TreeSeeds[:min(structureSeeds, len(c.TreeSeeds))]
	rep := &StructureReport{Seeds: seeds}

	vectorQueries := c.VectorQueries()
	for i, w := range []struct {
		name  string
		items [][]float64
	}{{"uniform L2", c.UniformVectors()}, {"clustered L2", c.ClusteredVectors()}} {
		r, err := bench.CalibrateRadius(rand.New(rand.NewPCG(c.DataSeed, 10+uint64(i))), w.items, metric.L2, StructureSelectivity, 0)
		if err != nil {
			return nil, err
		}
		cells, err := structureCells(w.name, w.items, vectorQueries, metric.L2, comparisonStructures[[]float64](), r, seeds, c.BuildWorkers)
		if err != nil {
			return nil, err
		}
		rep.Cells = append(rep.Cells, cells...)
	}

	words := c.Words()
	cells, err := structureCells("words edit", words, c.WordQueries(words), metric.Edit,
		append(comparisonStructures[string](), bench.BKT[string]()), 1, seeds, c.BuildWorkers)
	if err != nil {
		return nil, err
	}
	rep.Cells = append(rep.Cells, cells...)

	imgs := c.Images()
	imageQueries := c.ImageQuerySet(imgs)
	for i, m := range []struct {
		name string
		dist metric.DistanceFunc[*pgm.Image]
	}{{"images L1", c.ImageL1()}, {"images L2", c.ImageL2()}} {
		r, err := bench.CalibrateRadius(rand.New(rand.NewPCG(c.DataSeed, 12+uint64(i))), imgs, m.dist, StructureSelectivity, 0)
		if err != nil {
			return nil, err
		}
		cells, err := structureCells(m.name, imgs, imageQueries, m.dist, comparisonStructures[*pgm.Image](), r, seeds, c.BuildWorkers)
		if err != nil {
			return nil, err
		}
		rep.Cells = append(rep.Cells, cells...)
	}
	return rep, nil
}

// structureCells measures the range cell (radius r) and the kNN cell
// (k = StructureK) of one workload. Each structure is built once per
// seed and answers both batches.
func structureCells[T any](workload string, items, queries []T, dist metric.DistanceFunc[T],
	structures []bench.Structure[T], r float64, seeds []uint64, buildWorkers int) ([]StructureCell, error) {
	kinds := []struct {
		label string
		reqs  []index.Query[T]
	}{
		{fmt.Sprintf("range r=%.3g", r), make([]index.Query[T], len(queries))},
		{fmt.Sprintf("knn k=%d", StructureK), make([]index.Query[T], len(queries))},
	}
	for i, q := range queries {
		kinds[0].reqs[i] = index.RangeQuery(q, r)
		kinds[1].reqs[i] = index.KNNQuery(q, StructureK)
	}
	want := make([][]index.Result[T], len(kinds))
	scan := linear.New(items, metric.NewCounter(dist))
	for ki, kind := range kinds {
		want[ki] = make([]index.Result[T], len(queries))
		for i, req := range kind.reqs {
			want[ki][i] = scan.Search(req)
		}
	}

	cells := make([]StructureCell, len(kinds))
	for ki, kind := range kinds {
		cells[ki] = StructureCell{Workload: workload, Query: kind.label, Rows: make([]StructureRow, len(structures))}
	}
	got := make([]index.Result[T], len(queries))
	perSeed := float64(len(seeds))
	perQuery := perSeed * float64(len(queries))
	for si, s := range structures {
		for _, seed := range seeds {
			counter := metric.NewCounter(dist)
			idx, _, err := s.Build(items, counter, build.Options{Seed: seed, Workers: buildWorkers})
			if err != nil {
				return nil, fmt.Errorf("%s: building %s: %w", workload, s.Name, err)
			}
			built := float64(counter.Count())
			for ki, kind := range kinds {
				var best time.Duration
				for pass := range StructurePasses {
					counter.Reset()
					start := time.Now()
					for i, req := range kind.reqs {
						got[i] = idx.Search(req)
					}
					if elapsed := time.Since(start); pass == 0 || elapsed < best {
						best = elapsed
					}
				}
				if err := sameAnswers(got, want[ki]); err != nil {
					return nil, fmt.Errorf("%s %s: %s (seed %d): %w", workload, kind.label, s.Name, seed, err)
				}
				row := &cells[ki].Rows[si]
				row.Structure = s.Name
				row.Distances += float64(counter.Count()) / perQuery
				row.NsPerQuery += float64(best.Nanoseconds()) / perQuery
				row.BuildDistances += built / perSeed
			}
		}
	}
	for ki := range cells {
		markDominated(cells[ki].Rows)
	}
	return cells, nil
}

// sameAnswers compares a batch with the scan's: the count of a range
// answer, the distance list of a kNN answer.
func sameAnswers[T any](got, want []index.Result[T]) error {
	for i := range want {
		if len(got[i].Items) != len(want[i].Items) {
			return fmt.Errorf("query %d: %d range results, the scan %d", i, len(got[i].Items), len(want[i].Items))
		}
		g, w := got[i].Neighbors, want[i].Neighbors
		if len(g) != len(w) {
			return fmt.Errorf("query %d: %d neighbors, the scan %d", i, len(g), len(w))
		}
		for j := range w {
			if g[j].Dist != w[j].Dist {
				return fmt.Errorf("query %d: neighbor %d at %g, the scan's at %g", i, j, g[j].Dist, w[j].Dist)
			}
		}
	}
	return nil
}

// markDominated fills each row's DominatedBy with the rows that compute
// no more distances and take no more time, and are strictly better on
// one of the two.
func markDominated(rows []StructureRow) {
	for i := range rows {
		a := &rows[i]
		for _, b := range rows {
			if b.Distances <= a.Distances && b.NsPerQuery <= a.NsPerQuery &&
				(b.Distances < a.Distances || b.NsPerQuery < a.NsPerQuery) {
				a.DominatedBy = append(a.DominatedBy, b.Structure)
			}
		}
	}
}

// WriteStructures prints one block per cell and then, per structure,
// the cells where nothing dominates it.
func WriteStructures(w io.Writer, rep *StructureReport) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# seeds %v; ns/query is the fastest of %d single-goroutine passes; every answer matches the scan's\n",
		rep.Seeds, StructurePasses)
	var names []string
	front := map[string][]string{} // structure → the cells nothing dominates it in
	for _, c := range rep.Cells {
		fmt.Fprintf(&sb, "## %s, %s\n", c.Workload, c.Query)
		fmt.Fprintf(&sb, "%-16s %12s %12s %12s  %s\n", "structure", "dist/query", "ns/query", "build_dist", "dominated by")
		for _, r := range c.Rows {
			if _, seen := front[r.Structure]; !seen {
				names = append(names, r.Structure)
				front[r.Structure] = nil
			}
			by := strings.Join(r.DominatedBy, " ")
			if by == "" {
				by = "-"
				front[r.Structure] = append(front[r.Structure], c.Workload+" "+strings.Fields(c.Query)[0])
			}
			fmt.Fprintf(&sb, "%-16s %12.1f %12.0f %12.0f  %s\n", r.Structure, r.Distances, r.NsPerQuery, r.BuildDistances, by)
		}
	}
	sb.WriteString("## cells where nothing dominates each structure\n")
	for _, n := range names {
		cells := "none"
		if len(front[n]) > 0 {
			cells = strings.Join(front[n], ", ")
		}
		fmt.Fprintf(&sb, "%-16s %s\n", n, cells)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
