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
	if t.root == nil {
		return nil
	}
	b, err := cascade.NewBuilder[T](opts)
	if err != nil {
		return err
	}
	queue := []*node[T]{t.root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.isLeaf() && n.cnt == 0 {
			n.casBase = b.AddItems(nil) // the id the first point gets
			for i := 0; i < 2; i++ {
				if pt, ok := n.point(i); ok {
					b.AddItem(*pt)
				}
			}
			continue
		}
		if n.hasSV1 {
			n.cas1 = b.AddPivot(n.sv1)
		}
		if n.hasSV2 {
			n.cas2 = b.AddPivot(n.sv2)
		}
		if n.isLeaf() {
			n.casBase = b.AddItems(t.items[n.off : n.off+n.cnt])
			continue
		}
		for _, row := range n.children {
			for _, c := range row {
				if c != nil {
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
	t.cas = f
	return nil
}

// Cascade returns the tree's cascade filter, nil unless EnableCascade
// built one.
func (t *Tree[T]) Cascade() *cascade.Filter[T] { return t.cas }
