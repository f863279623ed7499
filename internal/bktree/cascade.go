package bktree

import "mvptree/internal/cascade"

// EnableCascade builds the cross-query bound cascade for the tree
// (internal/cascade). The BK-tree stores one item per node, so the
// roles split by node kind at enable time: the first opts.Pivots
// internal-node items (breadth-first) become cascade pivots — their
// query distances are always computed exactly anyway, to position the
// child key window — and every current leaf item gets a row in the
// pivot × item distance table, precomputed through the tree's own
// counter. Afterwards Range/KNN queries register the internal-node
// distances they pay for regardless and skip a leaf's distance
// computation entirely when the triangle-inequality lower bound over
// the registered pivots already exceeds the query threshold (a leaf
// has no children, so its distance decides membership only). Results
// are the same sets with the cascade on or off; per-query distance
// counts can only decrease.
//
// Items added by Insert after EnableCascade stay unstamped and are
// simply never filtered — correct, just not accelerated; re-enable to
// cover them. The precomputation costs Pivots × Leaves distance
// computations, reported by Cascade().BuildDistances. A tree too small
// to hold both internal nodes and leaves is left uncascaded silently.
// EnableCascade mutates nodes and, like Insert, must be serialized
// against queries externally.
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
		if n.isLeaf() {
			n.casID = b.AddItem(n.item) + 1
			continue
		}
		n.cas = b.AddPivot(n.item)
		queue = append(queue, n.kids...)
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
