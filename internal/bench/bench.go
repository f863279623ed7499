// Package bench is the experiment harness that regenerates the paper's
// evaluation (§5.2): it builds a set of index structures over a
// workload, runs a batch of range (or kNN) queries for every swept
// parameter value, and reports the average number of distance
// computations per query — the paper's cost measure — averaged over
// several construction seeds, exactly as the paper averages "4 different
// runs ... where a different seed is used in each run".
package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"

	"mvptree/internal/build"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/qexec"
)

// Structure names one index structure and knows how to build it over an
// item set with the shared construction options (seed and build-worker
// count); it reports the uniform construction Stats.
type Structure[T any] struct {
	Name  string
	Build func(items []T, dist *metric.Counter[T], opts build.Options) (index.Searcher[T], build.Stats, error)
}

// Cell is one (sweep value, structure) measurement.
type Cell struct {
	// AvgDistComps is the average number of distance computations per
	// query — the paper's y-axis.
	AvgDistComps float64
	// AvgResults is the average result-set size, a sanity signal that
	// compared structures answered identically.
	AvgResults float64
	// BuildCost is the average construction cost in distance
	// computations across seeds.
	BuildCost float64
	// SelectCost is the share of BuildCost spent choosing vantage
	// points (build.Stats.SelectionDistances), averaged the same way.
	SelectCost float64
	// SeedStdDev is the standard deviation of the per-seed mean cost —
	// the sensitivity to the random vantage-point choice the paper
	// remarks on ("the random function that is used to pick vantage
	// points has a considerable effect").
	SeedStdDev float64
	// BuildWall is the average wall-clock construction time in seconds
	// across seeds — the quantity build workers trade against (the
	// distance-computation BuildCost is identical for every worker
	// count).
	BuildWall float64
	// FilterStep and FilterSlack describe the grid an mvp-tree stores its
	// leaf distances on (mvp.Stats): the coarsest step and largest slack
	// across seeds, zero for the other structures.
	FilterStep, FilterSlack float64
}

// Table is the result of a sweep: rows are swept values (query radii or
// k), columns are structures.
type Table struct {
	// Label names the sweep parameter ("r" or "k").
	Label string
	// Values are the swept parameter values, one table row each.
	Values []float64
	// Structures are the column names in order.
	Structures []string
	// Cells is indexed [value][structure].
	Cells [][]Cell
}

// DefaultSeeds are the four construction seeds used throughout, mirroring
// the paper's four runs per configuration.
var DefaultSeeds = []uint64{101, 202, 303, 404}

// RunRange sweeps query radii: for every structure and every seed it
// builds the index once, then answers every query at every radius,
// counting distance computations per query. The optional workers
// arguments set the query-batch parallelism and the construction
// parallelism per (structure, seed) run — workers[0] is the query
// worker count, workers[1] the build worker count (both default 1,
// i.e. sequential). Neither changes any measured distance count: each
// query's cost is independent of its neighbors, and construction is
// deterministic in the build worker count.
func RunRange[T any](items, queries []T, distFn metric.DistanceFunc[T],
	structures []Structure[T], radii []float64, seeds []uint64, workers ...int) (*Table, error) {
	qw, bw := optWorkers(workers)
	return run(items, queries, distFn, structures, radii, seeds, qw, bw, "r",
		func(idx index.Searcher[T], qs []T, r float64, w int) []int {
			res, _, _ := qexec.RunRange(idx, qs, r, qexec.Options{Workers: w})
			return resultCounts(res)
		})
}

// RunKNN sweeps k values for k-nearest-neighbor queries. The optional
// workers arguments work as in RunRange.
func RunKNN[T any](items, queries []T, distFn metric.DistanceFunc[T],
	structures []Structure[T], ks []int, seeds []uint64, workers ...int) (*Table, error) {
	vals := make([]float64, len(ks))
	for i, k := range ks {
		vals[i] = float64(k)
	}
	qw, bw := optWorkers(workers)
	return run(items, queries, distFn, structures, vals, seeds, qw, bw, "k",
		func(idx index.Searcher[T], qs []T, k float64, w int) []int {
			res, _, _ := qexec.RunKNN(idx, qs, int(k), qexec.Options{Workers: w})
			return resultCounts(res)
		})
}

// optWorkers resolves the optional trailing worker arguments
// (query workers, then build workers); zero and negative values mean
// sequential.
func optWorkers(workers []int) (query, build int) {
	query, build = 1, 1
	if len(workers) > 0 && workers[0] > 1 {
		query = workers[0]
	}
	if len(workers) > 1 && workers[1] > 1 {
		build = workers[1]
	}
	return query, build
}

// resultCounts reduces per-query result sets to their sizes.
func resultCounts[R any](res []([]R)) []int {
	counts := make([]int, len(res))
	for i, r := range res {
		counts[i] = len(r)
	}
	return counts
}

func run[T any](items, queries []T, distFn metric.DistanceFunc[T],
	structures []Structure[T], values []float64, seeds []uint64, workers, buildWorkers int, label string,
	batch func(idx index.Searcher[T], qs []T, v float64, w int) []int) (*Table, error) {

	if len(structures) == 0 || len(values) == 0 {
		return nil, errors.New("bench: need at least one structure and one sweep value")
	}
	if len(queries) == 0 {
		return nil, errors.New("bench: need at least one query")
	}
	if len(seeds) == 0 {
		seeds = DefaultSeeds
	}
	t := &Table{Label: label, Values: values}
	for _, s := range structures {
		t.Structures = append(t.Structures, s.Name)
	}
	t.Cells = make([][]Cell, len(values))
	for i := range t.Cells {
		t.Cells[i] = make([]Cell, len(structures))
	}

	// Every (structure, seed) run owns its counter and index, so runs
	// are independent; spread them over a bounded worker pool and merge
	// the partial sums in deterministic order afterwards.
	type job struct{ si, seedIdx int }
	jobs := make([]job, 0, len(structures)*len(seeds))
	for si := range structures {
		for seedIdx := range seeds {
			jobs = append(jobs, job{si, seedIdx})
		}
	}
	partial := make([][][]Cell, len(structures)) // [structure][seed][value]
	for si := range partial {
		partial[si] = make([][]Cell, len(seeds))
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for ji, j := range jobs {
		wg.Add(1)
		go func(ji int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s := structures[j.si]
			counter := metric.NewCounter(distFn)
			idx, bstats, err := s.Build(items, counter, build.Options{Workers: buildWorkers, Seed: seeds[j.seedIdx]})
			if err != nil {
				errs[ji] = fmt.Errorf("bench: building %s: %w", s.Name, err)
				return
			}
			buildCost := float64(counter.Count())
			var shape mvp.Stats
			if tr, ok := idx.(*mvp.Tree[T]); ok {
				// A grid is reported where something is stored on it: a
				// classic vp-tree's leaves hold no items.
				if s := tr.Shape(); s.FilterBytes > 0 {
					shape = s
				}
			}
			cells := make([]Cell, len(values))
			for vi, v := range values {
				cells[vi].BuildCost = buildCost
				cells[vi].FilterStep, cells[vi].FilterSlack = shape.FilterStep, shape.FilterSlack
				cells[vi].SelectCost = float64(bstats.SelectionDistances)
				cells[vi].BuildWall = bstats.Wall.Seconds()
				// The batch total is measured as one Counter delta: the
				// counter is atomic and per-query costs are independent,
				// so the sum equals the sequential per-query sum for any
				// worker count.
				counter.Reset()
				counts := batch(idx, queries, v, workers)
				cells[vi].AvgDistComps = float64(counter.Count())
				for _, n := range counts {
					cells[vi].AvgResults += float64(n)
				}
			}
			partial[j.si][j.seedIdx] = cells
		}(ji, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	norm := float64(len(seeds) * len(queries))
	for si := range structures {
		for seedIdx := range seeds {
			for vi := range values {
				cell := &t.Cells[vi][si]
				p := partial[si][seedIdx][vi]
				cell.BuildCost += p.BuildCost / float64(len(seeds))
				cell.SelectCost += p.SelectCost / float64(len(seeds))
				cell.BuildWall += p.BuildWall / float64(len(seeds))
				cell.FilterStep, cell.FilterSlack = max(cell.FilterStep, p.FilterStep), max(cell.FilterSlack, p.FilterSlack)
				cell.AvgDistComps += p.AvgDistComps / norm
				cell.AvgResults += p.AvgResults / norm
			}
		}
		// Second pass: spread of the per-seed means around the overall
		// mean, the paper's seed-sensitivity.
		for vi := range values {
			cell := &t.Cells[vi][si]
			var ss float64
			for seedIdx := range seeds {
				mean := partial[si][seedIdx][vi].AvgDistComps / float64(len(queries))
				d := mean - cell.AvgDistComps
				ss += d * d
			}
			cell.SeedStdDev = math.Sqrt(ss / float64(len(seeds)))
		}
	}
	return t, nil
}

// Cell returns the measurement for a sweep value and structure name.
func (t *Table) Cell(value float64, name string) (Cell, error) {
	vi, si := -1, -1
	for i, v := range t.Values {
		if v == value {
			vi = i
		}
	}
	for i, s := range t.Structures {
		if s == name {
			si = i
		}
	}
	if vi < 0 || si < 0 {
		return Cell{}, fmt.Errorf("bench: no cell for %s=%g, structure %q", t.Label, value, name)
	}
	return t.Cells[vi][si], nil
}

// SavingsPercent reports, per sweep value, how many percent fewer
// distance computations structure a makes than structure b — the form in
// which the paper states every headline result ("mvp tree outperforms
// the vp-tree 20% to 80%").
func (t *Table) SavingsPercent(a, b string) ([]float64, error) {
	out := make([]float64, len(t.Values))
	for i, v := range t.Values {
		ca, err := t.Cell(v, a)
		if err != nil {
			return nil, err
		}
		cb, err := t.Cell(v, b)
		if err != nil {
			return nil, err
		}
		if cb.AvgDistComps == 0 {
			return nil, fmt.Errorf("bench: %q made zero distance computations at %s=%g", b, t.Label, v)
		}
		out[i] = 100 * (1 - ca.AvgDistComps/cb.AvgDistComps)
	}
	return out, nil
}

// WriteTo prints the table with one row per sweep value and one column
// per structure, matching the series the paper plots.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s", t.Label)
	for _, s := range t.Structures {
		fmt.Fprintf(&sb, " %14s", s)
	}
	sb.WriteByte('\n')
	for vi, v := range t.Values {
		fmt.Fprintf(&sb, "%-10.4g", v)
		for si := range t.Structures {
			fmt.Fprintf(&sb, " %14.1f", t.Cells[vi][si].AvgDistComps)
		}
		sb.WriteByte('\n')
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// WriteResultCounts prints average result-set sizes in the same layout,
// for cross-checking that structures agree.
func (t *Table) WriteResultCounts(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s", t.Label)
	for _, s := range t.Structures {
		fmt.Fprintf(&sb, " %14s", s)
	}
	sb.WriteByte('\n')
	for vi, v := range t.Values {
		fmt.Fprintf(&sb, "%-10.4g", v)
		for si := range t.Structures {
			fmt.Fprintf(&sb, " %14.2f", t.Cells[vi][si].AvgResults)
		}
		sb.WriteByte('\n')
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// WriteBuildCosts prints average construction costs (distance
// computations, averaged over seeds) per structure — the preprocessing
// comparison the paper makes in §3.2/§4.2 (vp-tree O(n·log_m n), GNAT
// "more expensive", mvp-tree O(n·log_{m²} n)) — and, in the selection
// row, how much of each went into choosing vantage points. The last two
// rows are the grid each mvp-tree's leaf distances ended up on.
func (t *Table) WriteBuildCosts(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s", "build")
	for _, s := range t.Structures {
		fmt.Fprintf(&sb, " %14s", s)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-10s", "cost")
	for si := range t.Structures {
		fmt.Fprintf(&sb, " %14.0f", t.Cells[0][si].BuildCost)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-10s", "selection")
	for si := range t.Structures {
		fmt.Fprintf(&sb, " %14.0f", t.Cells[0][si].SelectCost)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-10s", "wall_s")
	for si := range t.Structures {
		fmt.Fprintf(&sb, " %14.4f", t.Cells[0][si].BuildWall)
	}
	sb.WriteByte('\n')
	for _, row := range []struct {
		name string
		of   func(Cell) float64
	}{
		{"filt_step", func(c Cell) float64 { return c.FilterStep }},
		{"filt_slack", func(c Cell) float64 { return c.FilterSlack }},
	} {
		fmt.Fprintf(&sb, "%-10s", row.name)
		for si := range t.Structures {
			if c := t.Cells[0][si]; c.FilterStep == 0 {
				fmt.Fprintf(&sb, " %14s", "-")
			} else {
				fmt.Fprintf(&sb, " %14.3g", row.of(c))
			}
		}
		sb.WriteByte('\n')
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// WriteCSV prints the table as CSV (header row of structure names, one
// data row per sweep value) for consumption by plotting tools.
func (t *Table) WriteCSV(w io.Writer) (int64, error) {
	var sb strings.Builder
	sb.WriteString(t.Label)
	for _, s := range t.Structures {
		sb.WriteByte(',')
		sb.WriteString(csvEscape(s))
	}
	sb.WriteByte('\n')
	for vi, v := range t.Values {
		fmt.Fprintf(&sb, "%g", v)
		for si := range t.Structures {
			fmt.Fprintf(&sb, ",%g", t.Cells[vi][si].AvgDistComps)
		}
		sb.WriteByte('\n')
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// csvEscape quotes a field when it contains CSV metacharacters.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
