package shard

import (
	"math/rand/v2"
	"testing"

	"mvptree/internal/cascade"
	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/testutil"
)

// TestCascadeInvarianceAcrossShards checks the cascade's contract
// (testutil.CheckCascade) through the sharded index: a query pays each
// shard's pivots, so the allowance is pivots × shards.
func TestCascadeInvarianceAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0))
	items := dataset.UniformVectors(rng, 3000, 12)
	queries := dataset.UniformQueries(rng, 20, 12)
	be := MVP[[]float64](mvp.Options{Partitions: 3, LeafCapacity: 40, PathLength: 4})
	for _, shards := range []int{1, 2} {
		var twins [2]*Index[[]float64]
		for i := range twins {
			x, _, err := NewWithStats(items, metric.NewCounter(metric.L2), be, Options{Shards: shards, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			twins[i] = x
		}
		if err := twins[1].EnableCascade(cascade.Options{}); err != nil {
			t.Fatal(err)
		}
		testutil.CheckCascade(t, twins[0], twins[1], cascade.DefaultPivots*shards, queries, []float64{0.3, 0.6, 0.9}, []int{1, 10, 50})
	}
}

// TestEnableCascadeAcrossSaveLoad pins the documented lifecycle: the
// cascade is not serialized by SaveDir, but re-enabling it on a LoadDir
// index restores the exact pruning behavior of the original — identical
// results, identical per-query stats including FilteredByCascade.
func TestEnableCascadeAcrossSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	items := dataset.UniformVectors(rng, 3000, 20)
	queries := dataset.UniformQueries(rng, 10, 20)
	be := MVP[[]float64](mvp.Options{Partitions: 3, LeafCapacity: 50, PathLength: 5})

	x, _, err := NewWithStats(items, metric.NewCounter(metric.L2), be, Options{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.EnableCascade(cascade.Options{}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := x.SaveDir(dir, be, codec.EncodeVector); err != nil {
		t.Fatal(err)
	}
	y, err := LoadDir(dir, metric.NewCounter[[]float64](metric.L2), be, codec.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	if err := y.EnableCascade(cascade.Options{}); err != nil {
		t.Fatal(err)
	}

	builtPruned := 0
	for _, q := range queries {
		resX, sX := x.RangeWithStats(q, 0.35)
		resY, sY := y.RangeWithStats(q, 0.35)
		if len(resX) != len(resY) {
			t.Fatalf("result sets differ: %d built vs %d loaded", len(resX), len(resY))
		}
		if sX != sY {
			t.Fatalf("stats differ: built %+v vs loaded %+v", sX, sY)
		}
		builtPruned += sX.FilteredByCascade
	}
	if builtPruned == 0 {
		t.Fatal("cascade never pruned on this workload; test is vacuous")
	}
}
