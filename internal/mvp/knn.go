package mvp

import (
	"mvptree/internal/index"
)

// KNN returns the k indexed items nearest to q in ascending distance
// order, using best-first branch-and-bound traversal. Subtrees are
// expanded in order of their triangle-inequality lower bound; leaf
// points are additionally filtered through their stored D1/D2 and PATH
// distances, so the pre-computed distances pay off for nearest-neighbor
// queries exactly as they do for range queries. (Nearest-neighbor search
// over vp-tree-style structures follows [Chi94]; the paper lists kNN as
// a straightforward variation of the near-neighbor query.)
//
// KNN is KNNWithStats without the stats: one traversal implementation.
func (t *Tree[T]) KNN(q T, k int) []index.Neighbor[T] {
	return t.knn(q, k, index.SearchOptions{}).Neighbors
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
