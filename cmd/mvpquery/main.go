// Command mvpquery builds an index over a vector or word file and
// answers similarity queries from the command line, reporting the
// results and the number of distance computations each query cost.
//
// Usage:
//
//	mvpquery -data vectors.txt -index mvp -range 0.3 -query "0.5 0.5 ..."
//	mvpquery -data vectors.txt -index vp -knn 10 -query "0.5 0.5 ..."
//	mvpquery -data words.txt -metric edit -index bk -range 2 -query hello
//
// A built mvp or vp index can be persisted and reloaded, skipping
// reconstruction (and all of its distance computations):
//
//	mvpquery -data vectors.txt -index mvp -saveindex idx.mvpt -range 0.3 -query "..."
//	mvpquery -loadindex idx.mvpt -range 0.3 -query "..."
//
// The file says which of the two it holds (a vp-tree is an mvp-tree with
// one vantage point per node), so -loadindex needs no -index; mvp and vp
// are both accepted.
//
// With -query omitted, queries are read one per line from stdin.
// -stats adds each query's filtering breakdown (nodes visited, shell
// prunes, leaf filters) to the text output or JSON object.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"mvptree"
	"mvptree/internal/shard"
	"mvptree/internal/vector"
)

func main() {
	if err := run(os.Stdout, os.Stdin, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvpquery:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, in io.Reader, args []string) error {
	fs := flag.NewFlagSet("mvpquery", flag.ContinueOnError)
	var (
		dataPath = fs.String("data", "", "dataset file: vectors (one per line) or words (required)")
		metricID = fs.String("metric", "l2", "l1 | l2 | linf | edit | hamming")
		indexID  = fs.String("index", "mvp", "mvp | gmvp | vp | gnat | ball | bk | laesa | linear")
		rangeR   = fs.Float64("range", -1, "range query radius")
		knnK     = fs.Int("knn", 0, "k-nearest-neighbor query size")
		queryStr = fs.String("query", "", "query item; stdin if omitted")
		m        = fs.Int("m", 3, "mvp/gmvp partitions / vp order")
		v        = fs.Int("v", 2, "gmvp vantage points per node")
		k        = fs.Int("k", 80, "mvp/gmvp/gnat/ball leaf capacity")
		p        = fs.Int("p", 5, "mvp retained path length")
		seed     = fs.Uint64("seed", 101, "construction seed")
		maxShow  = fs.Int("show", 10, "maximum results printed per query")
		saveIdx  = fs.String("saveindex", "", "write the built index (mvp or vp only) to this file")
		jsonOut  = fs.Bool("json", false, "emit one JSON object per query instead of text")
		stats    = fs.Bool("stats", false, "report each query's filtering breakdown (nodes, prunes, leaf filters)")
		loadIdx  = fs.String("loadindex", "", "load the index from this file instead of building from -data")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" && *loadIdx == "" {
		return fmt.Errorf("-data (or -loadindex) is required")
	}
	if *loadIdx != "" && *saveIdx != "" {
		return fmt.Errorf("-saveindex and -loadindex are mutually exclusive")
	}
	if math.IsNaN(*rangeR) {
		return fmt.Errorf("-range must be a number, got NaN")
	}
	if (*rangeR < 0) == (*knnK <= 0) {
		return fmt.Errorf("specify exactly one of -range or -knn")
	}
	if *maxShow < 0 {
		return fmt.Errorf("-show must be at least 0, got %d", *maxShow)
	}

	stringMetric := *metricID == "edit" || *metricID == "hamming"
	if stringMetric {
		var dist mvptree.DistanceFunc[string]
		if *metricID == "edit" {
			dist = mvptree.EditDistance
		} else {
			dist = mvptree.HammingDistance
		}
		var idx counted[string]
		var err error
		if *loadIdx != "" {
			idx, err = loadIndex(*loadIdx, *indexID, dist, mvptree.DecodeString)
		} else {
			var words []string
			words, err = readLines(*dataPath)
			if err != nil {
				return err
			}
			idx, err = buildIndex(words, dist, *indexID, *v, *m, *k, *p, *seed)
			if err == nil && *saveIdx != "" {
				err = saveIndex(*saveIdx, *indexID, idx, mvptree.EncodeString)
			}
		}
		if err != nil {
			return err
		}
		return serve(out, in, idx, func(s string) (string, error) { return s, nil },
			func(w string) string { return w }, *queryStr, *rangeR, *knnK, *maxShow, *jsonOut, *stats)
	}

	var dist mvptree.DistanceFunc[[]float64]
	switch *metricID {
	case "l1":
		dist = mvptree.L1
	case "l2":
		dist = mvptree.L2
	case "linf":
		dist = mvptree.LInf
	default:
		return fmt.Errorf("unknown vector metric %q", *metricID)
	}
	var idx counted[[]float64]
	dim := 0 // the indexed vectors' length; 0 for an empty index
	if *loadIdx != "" {
		t, err := loadIndex(*loadIdx, *indexID, dist, mvptree.DecodeVector)
		if err != nil {
			return err
		}
		if items := t.Items(); len(items) > 0 {
			dim = len(items[0])
		}
		idx = t
	} else {
		f, err := os.Open(*dataPath)
		if err != nil {
			return err
		}
		vectors, err := vector.ReadAll(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(vectors) == 0 {
			return fmt.Errorf("no vectors in %s", *dataPath)
		}
		dim = len(vectors[0])
		idx, err = buildIndex(vectors, dist, *indexID, *v, *m, *k, *p, *seed)
		if err != nil {
			return err
		}
		if *saveIdx != "" {
			if err := saveIndex(*saveIdx, *indexID, idx, mvptree.EncodeVector); err != nil {
				return err
			}
		}
	}
	parse := func(s string) ([]float64, error) {
		v, err := vector.Parse(s)
		if err != nil {
			return nil, err
		}
		if dim > 0 && len(v) != dim {
			return nil, fmt.Errorf("query has %d coordinates, dataset has %d", len(v), dim)
		}
		return v, nil
	}
	return serve(out, in, idx, parse, vector.Format, *queryStr, *rangeR, *knnK, *maxShow, *jsonOut, *stats)
}

// saveIndex persists a just-built mvp or vp index. The file at path is
// replaced whole or not at all: an index it refuses, or a save that
// fails, leaves it as it was.
func saveIndex[T any](path, id string, idx counted[T], enc mvptree.ItemEncoder[T]) error {
	t, ok := idx.(*mvptree.Tree[T]) // -index vp builds one too
	if !ok {
		return fmt.Errorf("index %q does not support -saveindex (mvp and vp only)", id)
	}
	return shard.WriteFileAtomic(filepath.Dir(path), filepath.Base(path), func(f *os.File) error {
		return mvptree.SaveTree(f, t, enc)
	})
}

// loadIndex reads a persisted mvp or vp index: one loader, the stream
// says which it holds, and id is only checked to be one of the two.
func loadIndex[T any](path, id string, dist mvptree.DistanceFunc[T], dec mvptree.ItemDecoder[T]) (*mvptree.Tree[T], error) {
	if id != "mvp" && id != "vp" {
		return nil, fmt.Errorf("index %q does not support -loadindex (mvp and vp only)", id)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mvptree.LoadTree(f, dist, dec)
}

// counted is the read surface every index here provides.
type counted[T any] interface {
	mvptree.Index[T]
	Counter() *mvptree.Counter[T]
}

func buildIndex[T any](items []T, dist mvptree.DistanceFunc[T], id string, v, m, k, p int, seed uint64) (counted[T], error) {
	switch id {
	case "mvp":
		return mvptree.New(items, dist, mvptree.Options{Partitions: m, LeafCapacity: k, PathLength: p, Build: mvptree.BuildOptions{Seed: seed}})
	case "gmvp":
		return mvptree.NewGeneral(items, dist, mvptree.GeneralOptions{
			Vantages: v, Partitions: m, LeafCapacity: k, PathLength: p, Build: mvptree.BuildOptions{Seed: seed},
		})
	case "vp":
		return mvptree.NewVP(items, dist, mvptree.VPOptions{Order: m, Build: mvptree.BuildOptions{Seed: seed}})
	case "gnat":
		return mvptree.NewGNAT(items, dist, mvptree.GNATOptions{LeafCapacity: k, Build: mvptree.BuildOptions{Seed: seed}})
	case "ball":
		return mvptree.NewBall(items, dist, mvptree.BallOptions{LeafCapacity: k, Build: mvptree.BuildOptions{Seed: seed}})
	case "bk":
		return mvptree.NewBK(items, dist)
	case "laesa":
		return mvptree.NewPivotTable(items, dist, mvptree.PivotOptions{Pivots: p, Build: mvptree.BuildOptions{Seed: seed}})
	case "linear":
		return mvptree.NewLinear(items, dist), nil
	default:
		return nil, fmt.Errorf("unknown index %q", id)
	}
}

// queryResult is the JSON form of one answered query.
type queryResult struct {
	Query                string       `json:"query"`
	Kind                 string       `json:"kind"` // "range" or "knn"
	Radius               float64      `json:"r,omitempty"`
	K                    int          `json:"k,omitempty"`
	Results              []jsonResult `json:"results"`
	DistanceComputations int64        `json:"distanceComputations"`
	// Search is the per-query filtering breakdown, present with -stats.
	Search *mvptree.SearchStats `json:"searchStats,omitempty"`
}

type jsonResult struct {
	Item string  `json:"item"`
	Dist float64 `json:"dist"`
}

func serve[T any](out io.Writer, in io.Reader, idx counted[T], parse func(string) (T, error), format func(T) string,
	queryStr string, r float64, k, maxShow int, jsonOut, stats bool) error {

	var si mvptree.StatsIndex[T]
	if stats {
		var ok bool
		si, ok = idx.(mvptree.StatsIndex[T])
		if !ok {
			return fmt.Errorf("this index does not expose per-query stats")
		}
	}

	build := idx.Counter().Count()
	if !jsonOut {
		fmt.Fprintf(out, "indexed %d items with %d distance computations\n", idx.Len(), build)
	}

	printStats := func(s mvptree.SearchStats) {
		fmt.Fprintf(out, "  stats: nodes=%d leaves=%d shells-pruned=%d candidates=%d filtered-d=%d filtered-path=%d computed=%d vantage=%d\n",
			s.NodesVisited, s.LeavesVisited, s.ShellsPruned, s.Candidates,
			s.FilteredByD, s.FilteredByPath, s.Computed, s.VantagePoints)
	}

	enc := json.NewEncoder(out)
	answer := func(line string) error {
		q, err := parse(strings.TrimSpace(line))
		if err != nil {
			return err
		}
		before := idx.Counter().Count()
		if jsonOut {
			res := queryResult{Query: strings.TrimSpace(line)}
			if r >= 0 {
				res.Kind, res.Radius = "range", r
				var items []T
				if stats {
					var s mvptree.SearchStats
					items, s = si.RangeWithStats(q, r)
					res.Search = &s
				} else {
					items = idx.Range(q, r)
				}
				for _, item := range items {
					res.Results = append(res.Results, jsonResult{format(item), 0})
				}
			} else {
				res.Kind, res.K = "knn", k
				var nbs []mvptree.Neighbor[T]
				if stats {
					var s mvptree.SearchStats
					nbs, s = si.KNNWithStats(q, k)
					res.Search = &s
				} else {
					nbs = idx.KNN(q, k)
				}
				for _, nb := range nbs {
					res.Results = append(res.Results, jsonResult{format(nb.Item), nb.Dist})
				}
			}
			res.DistanceComputations = idx.Counter().Count() - before
			return enc.Encode(res)
		}
		if r >= 0 {
			var results []T
			var s mvptree.SearchStats
			if stats {
				results, s = si.RangeWithStats(q, r)
			} else {
				results = idx.Range(q, r)
			}
			cost := idx.Counter().Count() - before
			fmt.Fprintf(out, "range r=%g: %d results, %d distance computations\n", r, len(results), cost)
			if stats {
				printStats(s)
			}
			for i, item := range results {
				if i >= maxShow {
					fmt.Fprintf(out, "  ... %d more\n", len(results)-maxShow)
					break
				}
				fmt.Fprintf(out, "  %s\n", format(item))
			}
			return nil
		}
		var results []mvptree.Neighbor[T]
		var s mvptree.SearchStats
		if stats {
			results, s = si.KNNWithStats(q, k)
		} else {
			results = idx.KNN(q, k)
		}
		cost := idx.Counter().Count() - before
		fmt.Fprintf(out, "knn k=%d: %d distance computations\n", k, cost)
		if stats {
			printStats(s)
		}
		for i, nb := range results {
			if i >= maxShow {
				break
			}
			fmt.Fprintf(out, "  d=%-10.4g %s\n", nb.Dist, format(nb.Item))
		}
		return nil
	}

	if queryStr != "" {
		return answer(queryStr)
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		if err := answer(sc.Text()); err != nil {
			fmt.Fprintln(os.Stderr, "query error:", err)
		}
	}
	return sc.Err()
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		s := strings.TrimSpace(sc.Text())
		if s != "" {
			out = append(out, s)
		}
	}
	return out, sc.Err()
}
