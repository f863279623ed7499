package serve

import (
	"sync/atomic"

	"mvptree/internal/index"
)

// Swap holds the served index behind an atomic pointer so a rebuilt or
// reloaded index can go live under traffic with zero downtime: readers
// Load the pointer once per batch and keep using that index for the
// batch's whole lifetime, while Store publishes the replacement for
// every later batch. The indexes in this repository are immutable after
// construction, so the old index keeps answering its in-flight batches
// correctly until the garbage collector reclaims it — no locks, no
// draining, no failed requests.
type Swap[T any] struct {
	p atomic.Pointer[swapCell[T]]
	// gen counts Store calls, so telemetry can report how many swaps a
	// process has served.
	gen atomic.Int64
}

// swapCell boxes the interface value: atomic.Pointer needs a concrete
// pointee type.
type swapCell[T any] struct {
	idx index.Searcher[T]
}

// NewSwap returns a Swap serving idx.
func NewSwap[T any](idx index.Searcher[T]) *Swap[T] {
	s := &Swap[T]{}
	s.p.Store(&swapCell[T]{idx: idx})
	return s
}

// Load returns the currently served index. The caller should Load once
// per unit of work and reuse the value, not re-Load mid-query.
func (s *Swap[T]) Load() index.Searcher[T] { return s.p.Load().idx }

// Store atomically publishes idx as the served index. In-flight work
// holding the previous index finishes against it unaffected.
func (s *Swap[T]) Store(idx index.Searcher[T]) {
	s.p.Store(&swapCell[T]{idx: idx})
	s.gen.Add(1)
}

// Replace publishes idx as Store does without counting a swap: for an
// index that holds what the served one holds and answers as it does, such
// as a copy repacked in memory (mvpserve's packed index), which is not a
// new index to anyone watching the swaps.
func (s *Swap[T]) Replace(idx index.Searcher[T]) {
	s.p.Store(&swapCell[T]{idx: idx})
}

// Swaps reports how many times Store has been called.
func (s *Swap[T]) Swaps() int64 { return s.gen.Load() }
