package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"mvptree/internal/balltree"
	"mvptree/internal/bktree"
	"mvptree/internal/cascade"
	"mvptree/internal/ghtree"
	"mvptree/internal/gmvp"
	"mvptree/internal/gnat"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/vptree"
)

// CascadeBenchRow is one (structure, workload) cell: per-query distance
// counts with the cross-query bound cascade off and on, over the same
// tree and the same queries. Distance counts are machine-independent,
// which is what makes this artifact a CI gate rather than a wall-clock
// benchmark.
type CascadeBenchRow struct {
	Structure string `json:"structure"`
	Workload  string `json:"workload"`
	// PrecomputeDistances is the one-time cost EnableCascade paid for
	// the pivot rows (Pivots × stored items).
	PrecomputeDistances int64 `json:"precompute_distances"`

	RangeDistOff float64 `json:"range_dist_off"`
	RangeDistOn  float64 `json:"range_dist_on"`
	// RangeReductionPct is 100 × (off − on) / off.
	RangeReductionPct float64 `json:"range_reduction_pct"`
	// RangePrunedPerQuery is the FilteredByCascade count per range
	// query — candidates skipped by the registered pivot bounds.
	RangePrunedPerQuery float64 `json:"range_pruned_per_query"`

	KNNDistOff        float64 `json:"knn_dist_off"`
	KNNDistOn         float64 `json:"knn_dist_on"`
	KNNReductionPct   float64 `json:"knn_reduction_pct"`
	KNNPrunedPerQuery float64 `json:"knn_pruned_per_query"`
}

// CascadeBenchReport is the artifact cmd/mvpbench -cascadejson writes
// (committed as BENCH_cascade.json and gated by cmd/benchguard).
type CascadeBenchReport struct {
	N          int     `json:"n"`
	Dim        int     `json:"dim"`
	Queries    int     `json:"queries"`
	Words      int     `json:"words"`
	Radius     float64 `json:"radius"`
	K          int     `json:"k"`
	EditRadius float64 `json:"edit_radius"`
	Pivots     int     `json:"pivots"`
	MaxPer     int     `json:"max_per_query"`
	GOMAXPROCS int     `json:"gomaxprocs"`

	Rows []CascadeBenchRow `json:"rows"`
}

// casIndex is the slice of a structure the study needs: the stats query
// surface plus the cascade switch.
type casIndex[T any] interface {
	index.StatsIndex[T]
	EnableCascade(cascade.Options) error
}

// CascadeBenchStudy measures the cross-query bound cascade on every
// structure that supports it: the vector structures on the uniform and
// clustered workloads, and the discrete-metric structures (mvpt, vpt,
// bkt) on the edit-distance word corpus. Each cell builds one tree,
// measures per-query distance counts cascade-off, enables the cascade
// (recording the precompute cost), and re-measures — verifying along
// the way that the cascade changed no result set. The off/on counts are
// exact counter deltas, deterministic for every row except the bkt kNN
// column (map-ordered children), so regressions gate cleanly in CI.
func CascadeBenchStudy(c Config) (*CascadeBenchReport, error) {
	vectors := c.UniformVectors()
	clustered := c.ClusteredVectors()
	vqueries := c.VectorQueries()
	words := c.Words()
	wqueries := c.WordQueries(words)
	editRadius := WordRadii[len(WordRadii)/2]
	casOpts := cascade.Options{Workers: c.BuildWorkers}
	seed := c.TreeSeeds[0]
	bw := c.BuildWorkers

	rep := &CascadeBenchReport{
		N: c.N, Dim: c.Dim, Queries: len(vqueries), Words: len(words),
		Radius: TelemetryRadius, K: TelemetryK, EditRadius: editRadius,
		Pivots: cascade.DefaultPivots, MaxPer: cascade.DefaultMaxPerQuery,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	vecCells, err := vectorCells(vectors, clustered, vqueries, seed, bw, casOpts)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, vecCells...)

	wordCells, err := wordCellsStudy(words, wqueries, editRadius, seed, bw, casOpts)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, wordCells...)
	return rep, nil
}

// vectorCells runs every vector structure over both vector workloads.
func vectorCells(uniform, clustered [][]float64, queries [][]float64,
	seed uint64, bw int, casOpts cascade.Options) ([]CascadeBenchRow, error) {
	builders := []struct {
		name  string
		build func(items [][]float64, dist *metric.Counter[[]float64]) (casIndex[[]float64], error)
	}{
		{"mvpt", func(items [][]float64, dist *metric.Counter[[]float64]) (casIndex[[]float64], error) {
			return mvp.New(items, dist, mvp.Options{
				Partitions: 3, LeafCapacity: 80, PathLength: 5,
				Build: mvp.Build{Seed: seed, Workers: bw},
			})
		}},
		{"vpt", func(items [][]float64, dist *metric.Counter[[]float64]) (casIndex[[]float64], error) {
			return vptree.New(items, dist, vptree.Options{
				Order: 2, Build: vptree.Build{Seed: seed, Workers: bw},
			})
		}},
		{"gmvpt", func(items [][]float64, dist *metric.Counter[[]float64]) (casIndex[[]float64], error) {
			return gmvp.New(items, dist, gmvp.Options{
				Build: gmvp.Build{Seed: seed, Workers: bw},
			})
		}},
		{"gnat", func(items [][]float64, dist *metric.Counter[[]float64]) (casIndex[[]float64], error) {
			return gnat.New(items, dist, gnat.Options{
				Build: gnat.Build{Seed: seed, Workers: bw},
			})
		}},
		{"ght", func(items [][]float64, dist *metric.Counter[[]float64]) (casIndex[[]float64], error) {
			return ghtree.New(items, dist, ghtree.Options{
				Build: ghtree.Build{Seed: seed, Workers: bw},
			})
		}},
		{"ball", func(items [][]float64, dist *metric.Counter[[]float64]) (casIndex[[]float64], error) {
			return balltree.New(items, dist, balltree.Options{
				Build: balltree.Build{Seed: seed, Workers: bw},
			})
		}},
	}
	workloads := []struct {
		name  string
		items [][]float64
	}{
		{"uniform", uniform},
		{"clustered", clustered},
	}
	var rows []CascadeBenchRow
	for _, wl := range workloads {
		for _, b := range builders {
			counter := metric.NewCounter[[]float64](metric.L2)
			tree, err := b.build(wl.items, counter)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: build: %w", b.name, wl.name, err)
			}
			row, err := measureCell(b.name, wl.name, tree, counter, queries,
				TelemetryRadius, TelemetryK, casOpts, vectorResultKey, true)
			if err != nil {
				return nil, err
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

// wordCellsStudy runs the discrete-metric structures over the
// edit-distance word corpus (the [BK73] best-match workload).
func wordCellsStudy(words, queries []string, r float64,
	seed uint64, bw int, casOpts cascade.Options) ([]CascadeBenchRow, error) {
	builders := []struct {
		name          string
		deterministic bool
		build         func(items []string, dist *metric.Counter[string]) (casIndex[string], error)
	}{
		{"mvpt", true, func(items []string, dist *metric.Counter[string]) (casIndex[string], error) {
			return mvp.New(items, dist, mvp.Options{
				Partitions: 3, LeafCapacity: 80, PathLength: 5,
				Build: mvp.Build{Seed: seed, Workers: bw},
			})
		}},
		{"vpt", true, func(items []string, dist *metric.Counter[string]) (casIndex[string], error) {
			return vptree.New(items, dist, vptree.Options{
				Order: 2, Build: vptree.Build{Seed: seed, Workers: bw},
			})
		}},
		{"bkt", false, func(items []string, dist *metric.Counter[string]) (casIndex[string], error) {
			return bktree.New(items, dist, bktree.Options{
				Build: bktree.Build{Seed: seed, Workers: bw},
			})
		}},
	}
	var rows []CascadeBenchRow
	for _, b := range builders {
		counter := metric.NewCounter[string](metric.Edit)
		tree, err := b.build(words, counter)
		if err != nil {
			return nil, fmt.Errorf("%s/words: build: %w", b.name, err)
		}
		row, err := measureCell(b.name, "words", tree, counter, queries,
			r, TelemetryK, casOpts, func(s string) string { return s }, b.deterministic)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// vectorResultKey is the canonical string of a vector, for
// order-insensitive result comparison.
func vectorResultKey(v []float64) string { return fmt.Sprint(v) }

// measureCell measures one tree: warm-up, cascade-off counts, enable,
// cascade-on counts, verifying the cascade changed no range result set
// and no kNN distance profile. Range results are compared as multisets
// of keyFn values (result order is unspecified); kNN answers are
// compared by their sorted distance sequence, which is invariant even
// for structures with tie-broken or map-ordered traversal. When
// deterministic is true the off/on counts are also checked for the
// guaranteed "on ≤ off" invariant.
func measureCell[T any](structure, workload string, tree casIndex[T],
	counter *metric.Counter[T], queries []T, r float64, k int,
	casOpts cascade.Options, keyFn func(T) string, deterministic bool) (*CascadeBenchRow, error) {
	nq := float64(len(queries))
	row := &CascadeBenchRow{Structure: structure, Workload: workload}

	// Warm-up pass: fills the per-structure scratch pools so the
	// measured passes run steady state.
	for _, q := range queries {
		tree.Range(q, r)
	}

	rangeOff := make([][]string, len(queries))
	before := counter.Count()
	for i, q := range queries {
		res, _ := tree.RangeWithStats(q, r)
		rangeOff[i] = resultKeys(res, keyFn)
	}
	row.RangeDistOff = float64(counter.Count()-before) / nq

	knnOff := make([][]float64, len(queries))
	before = counter.Count()
	for i, q := range queries {
		res, _ := tree.KNNWithStats(q, k)
		knnOff[i] = neighborDists(res)
	}
	row.KNNDistOff = float64(counter.Count()-before) / nq

	before = counter.Count()
	if err := tree.EnableCascade(casOpts); err != nil {
		return nil, fmt.Errorf("%s/%s: enable cascade: %w", structure, workload, err)
	}
	row.PrecomputeDistances = counter.Count() - before

	var pruned int64
	before = counter.Count()
	for i, q := range queries {
		res, s := tree.RangeWithStats(q, r)
		pruned += int64(s.FilteredByCascade)
		if got := resultKeys(res, keyFn); !equalKeys(got, rangeOff[i]) {
			return nil, fmt.Errorf("%s/%s: range query %d: cascade changed the result set (%d vs %d items)",
				structure, workload, i, len(got), len(rangeOff[i]))
		}
	}
	row.RangeDistOn = float64(counter.Count()-before) / nq
	row.RangePrunedPerQuery = float64(pruned) / nq

	pruned = 0
	before = counter.Count()
	for i, q := range queries {
		res, s := tree.KNNWithStats(q, k)
		pruned += int64(s.FilteredByCascade)
		if got := neighborDists(res); !equalDists(got, knnOff[i]) {
			return nil, fmt.Errorf("%s/%s: knn query %d: cascade changed the neighbor distances",
				structure, workload, i)
		}
	}
	row.KNNDistOn = float64(counter.Count()-before) / nq
	row.KNNPrunedPerQuery = float64(pruned) / nq

	if deterministic {
		if row.RangeDistOn > row.RangeDistOff {
			return nil, fmt.Errorf("%s/%s: cascade increased range distances (%.1f > %.1f)",
				structure, workload, row.RangeDistOn, row.RangeDistOff)
		}
		if row.KNNDistOn > row.KNNDistOff {
			return nil, fmt.Errorf("%s/%s: cascade increased knn distances (%.1f > %.1f)",
				structure, workload, row.KNNDistOn, row.KNNDistOff)
		}
	}
	row.RangeReductionPct = reductionPct(row.RangeDistOff, row.RangeDistOn)
	row.KNNReductionPct = reductionPct(row.KNNDistOff, row.KNNDistOn)
	return row, nil
}

// resultKeys maps a result set to its sorted key multiset.
func resultKeys[T any](res []T, keyFn func(T) string) []string {
	keys := make([]string, len(res))
	for i, x := range res {
		keys[i] = keyFn(x)
	}
	sort.Strings(keys)
	return keys
}

// neighborDists extracts the sorted distance sequence of a kNN answer.
func neighborDists[T any](res []index.Neighbor[T]) []float64 {
	ds := make([]float64, len(res))
	for i, nb := range res {
		ds[i] = nb.Dist
	}
	sort.Float64s(ds)
	return ds
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalDists(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reductionPct is 100 × (off − on) / off, 0 when off is 0.
func reductionPct(off, on float64) float64 {
	if off == 0 {
		return 0
	}
	return 100 * (off - on) / off
}

// WriteCascadeBench prints the cascade study as one row per
// (structure, workload) cell.
func WriteCascadeBench(w io.Writer, rep *CascadeBenchReport) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# cascade off vs on: uniform/clustered n=%d dim=%d r=%g k=%d, words n=%d r=%g, %d queries, pivots=%d maxper=%d\n",
		rep.N, rep.Dim, rep.Radius, rep.K, rep.Words, rep.EditRadius, rep.Queries, rep.Pivots, rep.MaxPer)
	fmt.Fprintf(&sb, "%-7s %-10s %12s %12s %8s %12s %12s %8s %11s %11s\n",
		"struct", "workload", "range-off", "range-on", "range-%", "knn-off", "knn-on", "knn-%", "pruned/q", "precompute")
	for _, row := range rep.Rows {
		fmt.Fprintf(&sb, "%-7s %-10s %12.1f %12.1f %8.1f %12.1f %12.1f %8.1f %11.1f %11d\n",
			row.Structure, row.Workload, row.RangeDistOff, row.RangeDistOn, row.RangeReductionPct,
			row.KNNDistOff, row.KNNDistOn, row.KNNReductionPct,
			row.RangePrunedPerQuery, row.PrecomputeDistances)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
