package shard

import (
	"io"

	"mvptree/internal/build"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// Backend packages the per-shard structure behind closures: how to
// build one shard, and how to serialize/deserialize it for the
// directory persistence layer. Shards are index.BatchSearcher values,
// so the fan-out calls Search and SearchBatch on them directly. A
// struct of closures rather than an interface because the index
// packages' encoder types are named function types, which would not
// satisfy literal method signatures.
type Backend[T any] struct {
	// Name identifies the backend in the persistence manifest; LoadDir
	// refuses a manifest naming a different backend.
	Name string
	// New builds one shard over items with the given intra-shard
	// worker budget and seed, reporting its construction stats.
	New func(items []T, dist *metric.Counter[T], workers int, seed uint64) (index.BatchSearcher[T], build.Stats, error)
	// Save serializes one shard previously built by New.
	Save func(s index.BatchSearcher[T], w io.Writer, enc func(T) ([]byte, error)) error
	// Load deserializes one shard written by Save.
	Load func(r io.Reader, dist *metric.Counter[T], dec func([]byte) (T, error)) (index.BatchSearcher[T], error)
}

// MVP is the backend: one mvp-tree per shard, or with Vantages 1 one
// vp-tree. The options'
// Build.Workers and Build.Seed are overridden per shard by the sharded
// build (budget slicing and per-shard seed mixing).
func MVP[T any](opts mvp.Options) Backend[T] {
	return Backend[T]{
		Name: "mvp",
		New: func(items []T, dist *metric.Counter[T], workers int, seed uint64) (index.BatchSearcher[T], build.Stats, error) {
			o := opts
			o.Build.Workers = workers
			o.Build.Seed = seed
			return mvp.NewWithStats(items, dist, o)
		},
		Save: func(s index.BatchSearcher[T], w io.Writer, enc func(T) ([]byte, error)) error {
			return s.(*mvp.Tree[T]).Save(w, enc)
		},
		Load: func(r io.Reader, dist *metric.Counter[T], dec func([]byte) (T, error)) (index.BatchSearcher[T], error) {
			return mvp.Load(r, dist, dec)
		},
	}
}
