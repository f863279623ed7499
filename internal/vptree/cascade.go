package vptree

import "mvptree/internal/cascade"

// EnableCascade builds the cross-query bound cascade for the tree: a
// breadth-first walk collects the first opts.Pivots vantage points as
// cascade pivots and assigns every leaf item a contiguous id, then
// precomputes the pivot × item distance rows through the tree's own
// counter (internal/cascade). Every Range/KNN query then registers the
// exact distances it computes at stamped vantage points and skips leaf
// candidates whose triangle-inequality lower bound over those
// registered distances already exceeds the query threshold. The vp-tree
// stores no leaf distances of its own (Computed == Candidates without
// the cascade), so this is the structure's first leaf filter. Results
// are byte-identical with the cascade on or off; per-query distance
// counts can only decrease.
//
// The precomputation is lazy and costs Pivots × LeafItems distance
// computations (Cascade().BuildDistances). A tree too small to hold
// leaf items is left uncascaded silently. EnableCascade is not
// synchronized with in-flight queries; the cascade state is not
// serialized by Save — re-enable after Load. Every Search consults it,
// approximate and budgeted ones included.
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
		if n.leaf {
			n.casBase = b.AddItems(n.items)
			continue
		}
		n.cas = b.AddPivot(n.vantage)
		for _, c := range n.children {
			if c != nil {
				queue = append(queue, c)
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
