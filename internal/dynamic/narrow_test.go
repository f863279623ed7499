package dynamic

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// TestNarrowCodesChangeNothing runs one schedule of writes and queries
// against two stores over the same words, one of which widens every tree
// it builds back to 16-bit filter codes (mvp.Tree.Widen): every answer,
// its stats, the counter, the rebuilds and the Save bytes must agree, and
// the other store's trees must hold a leaf item's row of 2 to 6 codes in
// one uint32 of nibbles, where the wide one spends 2 bytes a code.
func TestNarrowCodesChangeNothing(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(39, 4)), 1200, dataset.WordOptions{MinLen: 3, MaxLen: 9, MisspellingsPer: 3})
	for _, v := range []int{1, 2} {
		opts := Options{Tree: mvp.Options{Vantages: v, Partitions: 2, LeafCapacity: 10, PathLength: 4, Build: mvp.Build{Seed: 7}}}
		narrow, err := New(words[:500], metric.Edit, opts)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := New(words[:500], metric.Edit, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(39, 5))
		spare := words[500:]
		for op := 0; op < 1500; op++ {
			wide.tree.Widen()
			sh, w := narrow.tree.Shape(), wide.tree.Shape().FilterBytes
			if sh.FilterBytes != 4*sh.LeafItems || w < 2*2*sh.LeafItems || w > 2*(2+4)*sh.LeafItems {
				t.Fatalf("v=%d op %d: the filter arena holds %d bytes narrow, %d wide, for %d leaf items", v, op, sh.FilterBytes, w, sh.LeafItems)
			}
			q := words[rng.IntN(len(words))]
			var a, b any
			switch u := rng.IntN(100); {
			case u < 30 && len(spare) > 0:
				a, b = narrow.Insert(spare[0]), wide.Insert(spare[0])
				spare = spare[1:]
			case u < 45:
				na, ea := narrow.Delete(q)
				nb, eb := wide.Delete(q)
				a, b = fmt.Sprint(na, ea), fmt.Sprint(nb, eb)
			case u < 90:
				req := index.RangeQuery(q, float64(rng.IntN(3)))
				if u >= 65 {
					req = index.KNNQuery(q, 1+rng.IntN(12))
				}
				switch u % 5 {
				case 0:
					req.Opts.Epsilon = 0.5
				case 1:
					req.Opts.Budget = int64(20 + rng.IntN(200))
				}
				a, b = narrow.Search(req), wide.Search(req)
			case u < 95:
				a, b = narrow.RangeFarther(q, 6), wide.RangeFarther(q, 6)
			default:
				a, b = narrow.KFarthest(q, 4), wide.KFarthest(q, 4)
			}
			if !reflect.DeepEqual(a, b) || narrow.DistanceCount() != wide.DistanceCount() {
				t.Fatalf("v=%d op %d: narrow %v at %d distances, wide %v at %d", v, op, a, narrow.DistanceCount(), b, wide.DistanceCount())
			}
		}
		if narrow.Rebuilds() != wide.Rebuilds() || narrow.Rebuilds() < 3 {
			t.Errorf("v=%d: %d rebuilds narrow, %d wide; want the same, and a few", v, narrow.Rebuilds(), wide.Rebuilds())
		}
		var x, y bytes.Buffer
		if err := narrow.Save(&x, codec.EncodeString); err != nil {
			t.Fatal(err)
		}
		if err := wide.Save(&y, codec.EncodeString); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x.Bytes(), y.Bytes()) {
			t.Errorf("v=%d: the stores' Save bytes differ", v)
		}
	}
}
