package mvp

import "mvptree/internal/cascade"

// EnableCascade builds the cross-query bound cascade for the tree: a
// breadth-first walk collects the first opts.Pivots vantage points as
// cascade pivots (stamping their nodes) and assigns every leaf item a
// contiguous id — as it does the points of a leaf too small to have
// items, which the scans treat as candidates (rangeBare): in a classic
// vp-tree those are all there is to filter — then precomputes the pivot
// × item distance rows
// through the tree's own counter (internal/cascade). Afterwards every
// Range/KNN query registers the exact distances it computes at stamped
// vantage points — distances the traversal pays for anyway — and skips
// leaf candidates whose triangle-inequality lower bound over those
// registered distances already exceeds the query threshold, before the
// stored D1/D2 and PATH filters would have let them through to a real
// distance computation. Results are byte-identical with the cascade on
// or off; per-query distance counts can only decrease.
//
// The precomputation is lazy — nothing is spent unless this is called —
// and costs Pivots × LeafItems distance computations, reported by
// Cascade().BuildDistances. A tree too small to hold leaf items (or
// vantage points) is left uncascaded silently.
//
// EnableCascade is not synchronized with in-flight queries: enable the
// cascade before serving. The cascade state is not serialized by Save;
// re-enable after Load. Every Search consults it, approximate and
// budgeted ones included (their leaf filter compares the bound against
// the shrunken threshold).
func (t *Tree[T]) EnableCascade(opts cascade.Options) error {
	if len(t.nodes) == 0 {
		return nil
	}
	b, err := cascade.NewBuilder[T](opts)
	if err != nil {
		return err
	}
	// What the walk gives the nodes: per vantage-point slot its stamp as a
	// cascade pivot (the pivot index plus one; zero means unstamped), and
	// per leaf the cascade id of its first item — in a leaf without items,
	// of its first vantage point.
	stamp, base := make([]int32, len(t.vps)), make([]int32, len(t.nodes))
	queue := []int32{0}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		n := &t.nodes[i]
		if n.isLeaf() && n.cnt == 0 {
			base[i] = b.AddItems(t.points(i)) // the id the first point gets
			continue
		}
		for j, sv := range t.points(i) {
			stamp[int(i)*t.v+j] = b.AddPivot(sv)
		}
		if n.isLeaf() {
			base[i] = b.AddItems(t.items[n.off : n.off+n.cnt])
			continue
		}
		cut1, _, sh := t.inner(n)
		for range len(cut1) + 1 {
			row, _ := sh.next()
			for _, c := range row {
				if c != noChild {
					queue = append(queue, c)
				}
			}
		}
	}
	if b.NumPivots() == 0 || b.NumItems() == 0 {
		return nil
	}
	f, err := b.Build(t.dist)
	if err != nil {
		return err
	}
	t.cas, t.casStamp, t.casBase = f, stamp, base
	return nil
}

// itemBase returns the cascade id of leaf i's first candidate, zero while
// no cascade is armed.
func (t *Tree[T]) itemBase(i int32) int32 {
	if t.cas == nil {
		return 0
	}
	return t.casBase[i]
}

// Cascade returns the tree's cascade filter, nil unless EnableCascade
// built one.
func (t *Tree[T]) Cascade() *cascade.Filter[T] { return t.cas }
