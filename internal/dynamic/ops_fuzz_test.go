package dynamic

import (
	"slices"
	"testing"

	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// opReader hands out a fuzz input a byte at a time, zeros past its end.
type opReader struct{ b []byte }

func (r *opReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return int(c)
}

// word is a word of up to three letters over "abc" from one byte, so
// copies and near misses are common.
func (r *opReader) word() string {
	c := r.next()
	w := make([]byte, c%4)
	for i := range w {
		c /= 3
		w[i] = "abc"[c%3]
	}
	return string(w)
}

// FuzzStoreOperations drives a store over short words under edit
// distance with operations drawn from the fuzz input — inserts, deletes
// of live and of likely absent words, range, kNN, farthest and budgeted
// queries — and checks each against a scan of a shadow multiset of the
// live words: exact answers equal the scan's, a budgeted one holds live
// words at their true distances within the budget, and every Search's
// Distances() is its counter delta. Rebuilds fire wherever the rule puts
// them, the cap on a tree this small often.
func FuzzStoreOperations(f *testing.F) {
	f.Add([]byte{3, 0, 7, 1, 9, 4, 2, 5, 3, 6, 1, 7, 9})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25})
	f.Add([]byte("\x08\x00abc\x00bca\x00cab\x01\x02\x03\x04\x05\x06\x07\x02\x02\x02\x04\x05\x00\x00\x00\x00\x04\x07"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data}
		head := r.next()
		shadow := make([]string, head%12)
		for i := range shadow {
			shadow[i] = r.word()
		}
		s, err := New(shadow, metric.Edit, Options{Tree: mvp.Options{Vantages: 1 + head/12%2, Partitions: 2, LeafCapacity: 2, PathLength: 2}})
		if err != nil {
			t.Fatal(err)
		}
		shadow = slices.Clone(shadow)
		scan := func(q string, keep func(d float64) bool) (out []string) {
			for _, w := range shadow {
				if keep(metric.Edit(q, w)) {
					out = append(out, w)
				}
			}
			slices.Sort(out)
			return out
		}
		// byDist is the scan's distances in order, nearest or farthest first.
		byDist := func(q string, far bool) []float64 {
			ds := make([]float64, len(shadow))
			for i, w := range shadow {
				ds[i] = metric.Edit(q, w)
			}
			slices.Sort(ds)
			if far {
				slices.Reverse(ds)
			}
			return ds
		}
		search := func(step int, req index.Query[string]) index.Result[string] {
			before := s.DistanceCount()
			res := s.Search(req)
			if spent := s.DistanceCount() - before; spent != res.Stats.Distances() {
				t.Fatalf("step %d: %+v reports %d distances, the counter moved %d", step, req, res.Stats.Distances(), spent)
			}
			return res
		}
		// checkNeighbors holds nbs to live words at their true distances,
		// in order, and to want's distances where want is given.
		checkNeighbors := func(step int, q string, nbs []index.Neighbor[string], want []float64, far bool) {
			for i, nb := range nbs {
				if metric.Edit(q, nb.Item) != nb.Dist || !slices.Contains(shadow, nb.Item) {
					t.Fatalf("step %d: neighbor %d of %q is %q at %g", step, i, q, nb.Item, nb.Dist)
				}
				if i > 0 && (far && nb.Dist > nbs[i-1].Dist || !far && nb.Dist < nbs[i-1].Dist) {
					t.Fatalf("step %d: neighbors of %q out of order: %v", step, q, nbs)
				}
				if want != nil && nb.Dist != want[i] {
					t.Fatalf("step %d: neighbors of %q at %v, the scan's at %v", step, q, nbs, want)
				}
			}
		}
		for step := 0; len(r.b) > 0; step++ {
			switch op, q := r.next()%8, r.word(); op {
			case 0, 1:
				if err := s.Insert(q); err != nil {
					t.Fatal(err)
				}
				shadow = append(shadow, q)
			case 2, 3:
				if op == 2 && len(shadow) > 0 {
					q = shadow[r.next()%len(shadow)]
				}
				want := len(shadow)
				shadow = slices.DeleteFunc(shadow, func(w string) bool { return w == q })
				if n, err := s.Delete(q); err != nil || n != want-len(shadow) {
					t.Fatalf("step %d: Delete(%q) removed %d (%v), the shadow %d", step, q, n, err, want-len(shadow))
				}
			case 4:
				radius := float64(r.next() % 4)
				got := slices.Sorted(slices.Values(search(step, index.RangeQuery(q, radius)).Items))
				if want := scan(q, func(d float64) bool { return d <= radius }); !slices.Equal(got, want) {
					t.Fatalf("step %d: Range(%q, %g) = %q, the scan %q", step, q, radius, got, want)
				}
			case 5:
				k := 1 + r.next()%6
				want := byDist(q, false)
				want = want[:min(k, len(want))]
				nbs := search(step, index.KNNQuery(q, k)).Neighbors
				if len(nbs) != len(want) {
					t.Fatalf("step %d: KNN(%q, %d) = %v, the scan %v", step, q, k, nbs, want)
				}
				checkNeighbors(step, q, nbs, want, false)
			case 6:
				radius, k := float64(r.next()%4), 1+r.next()%4
				got := slices.Sorted(slices.Values(s.RangeFarther(q, radius)))
				if want := scan(q, func(d float64) bool { return d >= radius }); !slices.Equal(got, want) {
					t.Fatalf("step %d: RangeFarther(%q, %g) = %q, the scan %q", step, q, radius, got, want)
				}
				want := byDist(q, true)
				want = want[:min(k, len(want))]
				nbs := s.KFarthest(q, k)
				if len(nbs) != len(want) {
					t.Fatalf("step %d: KFarthest(%q, %d) = %v, the scan %v", step, q, k, nbs, want)
				}
				checkNeighbors(step, q, nbs, want, true)
			case 7:
				c := r.next()
				req := index.RangeQuery(q, float64(c%3))
				if c&4 != 0 {
					req = index.KNNQuery(q, 1+c%5)
				}
				req.Opts.Budget = int64(1 + r.next()%24)
				res := search(step, req)
				if spent := res.Stats.Distances(); spent > req.Opts.Budget {
					t.Fatalf("step %d: %+v spent %d distances", step, req, spent)
				}
				if req.K > 0 {
					checkNeighbors(step, q, res.Neighbors, nil, false)
					break
				}
				in := scan(q, func(d float64) bool { return d <= req.Radius })
				for _, w := range res.Items {
					i := slices.Index(in, w)
					if i < 0 {
						t.Fatalf("step %d: budgeted Range(%q, %g) = %q, the scan %q", step, q, req.Radius, res.Items, in)
					}
					in = slices.Delete(in, i, i+1)
				}
			}
			if s.Len() != len(shadow) {
				t.Fatalf("step %d: Len %d, the shadow holds %d", step, s.Len(), len(shadow))
			}
		}
	})
}
