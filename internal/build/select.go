package build

import "math/rand/v2"

// Sampled best-spread vantage selection ([Yia93]): a vantage point
// whose distances to the node's points are widely spread cuts them into
// shells a query ball seldom straddles, and gives leaf filters bounds
// that discriminate. The spread of a candidate is estimated on a small
// sample, so choosing costs a fixed fraction of what the node pays to
// measure its points anyway.

const (
	// SpreadCandidates is the number of candidates the default
	// selection compares at a node.
	SpreadCandidates = 8
	// MaxSample caps the sample every candidate is measured against; it
	// is also the size of SelectVantage's scratch.
	MaxSample = 64
	// sampleShare is the node size per sample point (SpreadCandidates
	// candidates then cost a node size/4 distances at most, against the
	// size or 2·size it pays to measure its points), and minSample the
	// sample below which a variance estimate is noise: nodes smaller
	// than minSample·sampleShare = 256 points draw.
	sampleShare = 32
	minSample   = 8
)

// SpreadSample is the default sample size at a node of size points:
// size/32 capped at MaxSample, and zero — SelectVantage's single draw —
// where that is fewer than 8 points.
func SpreadSample(size int) int {
	s := min(MaxSample, size/sampleShare)
	if s < minSample {
		return 0
	}
	return s
}

// SelectVantage returns the slot, within the subtree's permutation
// range perm, of the point to promote to vantage point: it draws sample
// slots (capped at MaxSample, shared by all candidates) and then
// candidates slots from rng, measures every candidate against the
// sample, and keeps the candidate whose distances have the largest
// variance. With fewer than two candidates or two sample points there
// is nothing to compare and the result is the single draw
// rng.IntN(len(perm)), rng's first.
//
// rng is the node's position-derived source (RNG.Rand), so the choice
// is identical for every worker count. A candidate's row goes through
// the metric's row kernel where it has one, as a node's rows do, and the
// sample lives in scratch the build owns; the candidates·sample
// distances are counted in Stats.Distances and reported apart as
// Stats.SelectionDistances; nothing is allocated.
func (b *Builder[T]) SelectVantage(items []T, perm []int32, rng *rand.Rand, candidates, sample int) int {
	sample = min(sample, MaxSample, len(perm)-1)
	if candidates < 2 || sample < 2 {
		return rng.IntN(len(perm))
	}
	sc := b.takeSamples()
	ids, dist := sc.ids[:sample], sc.dist[:sample]
	for i := range ids {
		ids[i] = perm[rng.IntN(len(perm))]
	}
	best, bestSpread := 0, -1.0
	for range candidates {
		slot := rng.IntN(len(perm))
		b.distances(items[perm[slot]], items, ids, dist)
		if s := spread(dist, ids, perm[slot]); s > bestSpread {
			best, bestSpread = slot, s
		}
	}
	b.mu.Lock()
	sc.next, b.samples = b.samples, sc
	b.mu.Unlock()
	b.dist.Add(int64(candidates * sample))
	b.selection.Add(int64(candidates * sample))
	return best
}

// sampleScratch is SelectVantage's scratch: the sample's ids and a
// candidate's distances to them.
type sampleScratch struct {
	ids  [MaxSample]int32
	dist [MaxSample]float64
	next *sampleScratch // the next spare one (Builder.samples)
}

// takeSamples takes scratch for one selection off the spare list, which
// Start fills with one a worker: a selection forks nothing, so no more
// are out at once; a new one is for a caller that selects from
// goroutines of its own.
func (b *Builder[T]) takeSamples() *sampleScratch {
	b.mu.Lock()
	s := b.samples
	if s != nil {
		b.samples = s.next
	}
	b.mu.Unlock()
	if s == nil {
		s = new(sampleScratch)
	}
	return s
}

// spread is the variance of dist over the sample points other than the
// candidate itself, whose zero would count as spread.
func spread(dist []float64, ids []int32, self int32) float64 {
	var n, sum float64
	for i, d := range dist {
		if ids[i] != self {
			n++
			sum += d
		}
	}
	if n == 0 {
		return 0
	}
	mean := sum / n
	var ss float64
	for i, d := range dist {
		if ids[i] != self {
			ss += (d - mean) * (d - mean)
		}
	}
	return ss / n
}
