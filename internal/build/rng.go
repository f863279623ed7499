package build

import "math/rand/v2"

// RNG is a splittable deterministic random source for parallel
// construction. Each tree node derives its local rand.Rand from an RNG
// fixed by the node's position in the tree (the chain of Child indices
// from the root), never from execution order, so random choices —
// vantage points, pivots, split samples — are identical for every
// worker count. This is the construction-side counterpart of PR 1's
// query-determinism discipline.
//
// RNG is a value type; copies are independent.
type RNG struct {
	key uint64
}

// golden is 2^64 / φ, the Weyl increment of SplitMix64.
const golden = 0x9e3779b97f4a7c15

// splitmix64 is the SplitMix64 output function, a high-quality 64-bit
// mixer used both to whiten seeds and to derive child keys.
func splitmix64(x uint64) uint64 {
	x += golden
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRNG returns the root RNG for a build: seed is the user's
// construction seed, salt a per-package constant so different
// structures built from one seed do not correlate.
func NewRNG(seed, salt uint64) RNG {
	return RNG{key: splitmix64(seed) ^ splitmix64(splitmix64(salt))}
}

// Child derives the RNG for the i-th child subtree. Distinct indices
// yield statistically independent streams; the derivation depends only
// on the parent's key and i.
func (r RNG) Child(i int) RNG {
	return RNG{key: splitmix64(r.key + golden*uint64(i+1))}
}

// Rand returns a fresh rand.Rand for this tree position's local random
// decisions. Repeated calls return identically-seeded sources; draw
// from one instance for sequenced decisions within a node.
func (r RNG) Rand() *rand.Rand {
	return rand.New(rand.NewPCG(r.key, randStream))
}

const randStream = 0x6275696c642e726e // "build.rn"

// Generator is RNG.Rand on a source a build seeds again for every node, so
// that a node's draws allocate nothing (Builder.Rand).
type Generator struct {
	pcg rand.PCG
	*rand.Rand
	next *Generator // the next spare one (Builder.spare)
}
