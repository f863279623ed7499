package shard

import "mvptree/internal/mvp"

// Backend says what a shard is: one mvp-tree built with the carried
// options (with Vantages 1, one vp-tree). MVP returns the only kind
// there is; New builds with it, and SaveDir and LoadDir hold it against
// the manifest.
type Backend[T any] struct {
	// Name identifies the backend in the persistence manifest; LoadDir
	// refuses a manifest naming a different backend.
	Name string
	opts mvp.Options
}

// MVP is the backend: one mvp-tree per shard. The options' Build.Workers
// and Build.Seed are overridden per shard by the sharded build (budget
// slicing and per-shard seed mixing).
func MVP[T any](opts mvp.Options) Backend[T] {
	return Backend[T]{Name: "mvp", opts: opts}
}
