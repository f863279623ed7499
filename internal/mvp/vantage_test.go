package mvp

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"mvptree/internal/dataset"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
)

func encodeWord(s string) ([]byte, error) { return []byte(s), nil }

// TestSpreadFirstVantageCutsQueryCost is the reason the first vantage
// point is chosen: on a word corpus at r=1 the default tree answers
// exactly like the linear scan and with fewer distance computations
// than the tree whose first vantage points are drawn, for a build that
// costs a few per cent more. Corpus and seeds are fixed: at this size
// the root decides most of the cost and about one drawn root in five is
// luckier than the chosen one (the chosen trees cost 172k–206k over 24
// corpus×seed pairs, the drawn ones 177k–257k), so "on every seed" is
// a property of these three, not a law.
func TestSpreadFirstVantageCutsQueryCost(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(20, 1)), 5000, dataset.WordOptions{MinLen: 5, MaxLen: 12, MisspellingsPer: 3})
	queries := dataset.SampleQueries(rand.New(rand.NewPCG(20, 2)), words, 256)
	scan := linear.New(words, metric.NewCounter(metric.Edit))
	want := make([][]string, len(queries))
	for i, q := range queries {
		want[i] = scan.Range(q, 1)
		slices.Sort(want[i])
	}
	for _, seed := range []uint64{1, 2, 3} {
		cost := func(drawn bool) (query, build, selection int64) {
			c := metric.NewCounter(metric.Edit)
			tree, st, err := NewWithStats(words, c, Options{Partitions: 3, LeafCapacity: 80, PathLength: 5,
				RandomFirstVantage: drawn, Build: Build{Seed: seed}})
			if err != nil {
				t.Fatal(err)
			}
			c.Reset()
			for i, q := range queries {
				got := tree.Range(q, 1)
				slices.Sort(got)
				if !slices.Equal(got, want[i]) {
					t.Fatalf("seed %d drawn=%v: Range(%q, 1) = %v, linear scan %v", seed, drawn, q, got, want[i])
				}
			}
			return c.Count(), st.Distances, st.SelectionDistances
		}
		spreadQ, spreadB, spreadS := cost(false)
		drawnQ, drawnB, drawnS := cost(true)
		if spreadQ >= drawnQ {
			t.Errorf("seed %d: %d query distances with sv1 chosen, %d with sv1 drawn: choosing did not pay", seed, spreadQ, drawnQ)
		}
		if drawnS != 0 {
			t.Errorf("seed %d: drawn build reports %d selection distances", seed, drawnS)
		}
		// Selection is the whole difference in build cost only if both
		// trees have the same shape, which equal-cardinality splits
		// guarantee; and it is capped at a quarter of a node's size.
		if spreadS == 0 || spreadB-drawnB != spreadS || spreadS*10 > drawnB {
			t.Errorf("seed %d: build %d (selection %d) vs drawn build %d", seed, spreadB, spreadS, drawnB)
		}
	}
}

// TestSmallTreesAreDrawn: below the sample floor (256 points) the
// default build is the drawn build, byte for byte.
func TestSmallTreesAreDrawn(t *testing.T) {
	words := dataset.Words(rand.New(rand.NewPCG(18, 3)), 255, dataset.WordOptions{})
	save := func(drawn bool) []byte {
		tree, st, err := NewWithStats(words, metric.NewCounter(metric.Edit), Options{Partitions: 2, LeafCapacity: 5, PathLength: 4,
			RandomFirstVantage: drawn, Build: Build{Seed: 9}})
		if err != nil {
			t.Fatal(err)
		}
		if st.SelectionDistances != 0 {
			t.Errorf("drawn=%v: %d selection distances in a tree of %d points", drawn, st.SelectionDistances, len(words))
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf, encodeWord); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(save(false), save(true)) {
		t.Error("a 255-point tree differs with and without RandomFirstVantage")
	}
}
