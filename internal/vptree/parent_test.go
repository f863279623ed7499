package vptree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/quant"
)

// parentRun is what one tree answered over the fixed query grid: a hash
// of every query's result ids in the order returned, the same with each
// range answer sorted (a set), a hash of every query's Distances(), and
// their total.
type parentRun struct {
	ordered, set, costs string
	total               int64
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// runParentGrid answers 24 queries × r ∈ {0.2, 0.4} and k ∈ {1, 10}
// through search, which stands for Search or SearchBatch.
func runParentGrid(items [][]float64, search func([]index.Query[[]float64]) []index.Result[[]float64], seed uint64) parentRun {
	id := make(map[*float64]uint32, len(items))
	for i, v := range items {
		id[&v[0]] = uint32(i)
	}
	queries := dataset.UniformQueries(rand.New(rand.NewPCG(seed, 20)), 24, len(items[0]))
	var reqs []index.Query[[]float64]
	for _, q := range queries {
		reqs = append(reqs, index.RangeQuery(q, 0.2), index.RangeQuery(q, 0.4), index.KNNQuery(q, 1), index.KNNQuery(q, 10))
	}
	ordered, set, costs := sha256.New(), sha256.New(), sha256.New()
	var run parentRun
	put := func(h hash.Hash, ids []uint32) {
		for _, x := range ids {
			binary.Write(h, binary.LittleEndian, x)
		}
		binary.Write(h, binary.LittleEndian, uint32(math.MaxUint32))
	}
	for _, res := range search(reqs) {
		var ids []uint32
		for _, it := range res.Items {
			ids = append(ids, id[&it[0]])
		}
		for _, nb := range res.Neighbors {
			ids = append(ids, id[&nb.Item[0]])
			binary.Write(ordered, binary.LittleEndian, nb.Dist)
		}
		put(ordered, ids)
		if res.Items != nil {
			slices.Sort(ids)
		}
		put(set, ids)
		binary.Write(costs, binary.LittleEndian, res.Stats.Distances())
		run.total += res.Stats.Distances()
	}
	run.ordered, run.set, run.costs = sum(ordered), sum(set), sum(costs)
	return run
}

// parentRows were recorded from internal/vptree at PR 19, while it was a
// tree of its own, by this file's grid (Order 3): the hash of the answers
// as sets, and what Search, SearchBatch and SQ8 alike paid for them in
// all. (The order of the answers, each query's cost and the cascade's
// were recorded too and held until PR 23; they belong to one draw.)
var parentRows = []struct {
	capacity int
	data     string
	seed     uint64
	set      string
	total    int64
}{
	{1, "uniform", 1, "54a2f2716352fd0d", 165026},
	{1, "uniform", 7, "cb3902e545dfe0d5", 154628},
	{1, "clustered", 1, "8d3ea19e2e616ddb", 121030},
	{1, "clustered", 7, "e56ee1b947b6abbc", 107380},
	{10, "uniform", 1, "54a2f2716352fd0d", 197270},
	{10, "uniform", 7, "cb3902e545dfe0d5", 185540},
	{10, "clustered", 1, "8d3ea19e2e616ddb", 153824},
	{10, "clustered", 7, "e56ee1b947b6abbc", 140152},
}

// drawSpread is how far a tree's total cost over the grid may sit from
// the recorded tree's and still be a draw of the same lottery: the rows
// read −2.2 … +1.9 % when the trees first changed.
const drawSpread = 0.05

// TestAnswersAndCostsOfSeparatePackage holds the constructor to what the
// package it replaced answered. From PR 20 to PR 22 its trees were the
// package's trees (every query's results in the same order at the same
// cost, which this test pinned under the name TestSameTreesAs…); since
// the partition step selects instead of sorting (PR 23) the order inside
// a shell is another one, a child draws another vantage point, and a
// tree is a different draw of the same lottery. What holds across draws:
// the answers are the recorded ones as sets; Search, SearchBatch and SQ8
// agree with one another on order and on every query's cost; and the
// grid's total cost is the package's within drawSpread at LeafCapacity 1,
// where the tree has the package's shape, and no more than that above it
// at LeafCapacity 10, where a leaf's first point is its vantage point and
// filters the rest. The cascade changes no answer and costs, over the
// grid, no more than going without.
func TestAnswersAndCostsOfSeparatePackage(t *testing.T) {
	const n, dim = 5000, 8
	for _, row := range parentRows {
		rng := rand.New(rand.NewPCG(row.seed, 14))
		items := dataset.UniformVectors(rng, n, dim)
		if row.data == "clustered" {
			items = dataset.ClusteredVectors(rng, n, dim, 250, 0.15)
		}
		mk := func() *Tree[[]float64] {
			tr, err := New(items, metric.NewCounter(metric.L2), Options{Build: Build{Seed: row.seed}, Order: 3, LeafCapacity: row.capacity})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		each := func(tr *Tree[[]float64]) func([]index.Query[[]float64]) []index.Result[[]float64] {
			return func(reqs []index.Query[[]float64]) []index.Result[[]float64] {
				out := make([]index.Result[[]float64], len(reqs))
				for i, r := range reqs {
					out[i] = tr.Search(r)
				}
				return out
			}
		}
		plain, sq8, cas := mk(), mk(), mk()
		if err := sq8.EnableQuantize(quant.SQ8); err != nil {
			t.Fatal(err)
		}
		if err := cas.EnableCascade(cascade.Options{}); err != nil {
			t.Fatal(err)
		}
		batch := func(reqs []index.Query[[]float64]) []index.Result[[]float64] {
			out := make([]index.Result[[]float64], len(reqs))
			for lo := 0; lo < len(reqs); lo += 16 {
				plain.SearchBatch(reqs[lo:lo+16], out[lo:lo+16])
			}
			return out
		}
		where := fmt.Sprintf("capacity %d %s/%d", row.capacity, row.data, row.seed)
		search := runParentGrid(items, each(plain), row.seed)
		if search.set != row.set {
			t.Errorf("%s: answers differ from the separate package's", where)
		}
		if got := runParentGrid(items, batch, row.seed); got != search {
			t.Errorf("%s: SearchBatch %+v, Search %+v", where, got, search)
		}
		if got := runParentGrid(items, each(sq8), row.seed); got != search {
			t.Errorf("%s: with SQ8 %+v, without %+v", where, got, search)
		}
		lo, hi := float64(row.total)*(1-drawSpread), float64(row.total)*(1+drawSpread)
		if row.capacity > 1 {
			lo = 0
		}
		if total := float64(search.total); total < lo || total > hi {
			t.Errorf("%s: %d distances, the separate package paid %d", where, search.total, row.total)
		}
		if got := runParentGrid(items, each(cas), row.seed); got.ordered != search.ordered || got.total > search.total {
			t.Errorf("%s cascade: %+v, without %+v", where, got, search)
		}
	}
}
