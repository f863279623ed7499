package dynamic

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// ruleStore is a store of n vectors with a buffer of inserts and a few
// tombstones in its tree, neither enough for the cap, and nothing wasted.
func ruleStore(t *testing.T, n int) (*Store[[]float64], *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewPCG(33, 1))
	initial := make([][]float64, n)
	for i := range initial {
		initial[i] = randVec(rng, 4)
	}
	s, err := New(initial, metric.L2, Options{Tree: mvp.Options{Partitions: 2, LeafCapacity: 8, PathLength: 3, Build: mvp.Build{Seed: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/10; i++ {
		if err := s.Insert(randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range initial[:n/50] {
		if _, err := s.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	if s.Rebuilds() != 1 || s.Buffered() != n/10 || s.treeDead != n/50 {
		t.Fatalf("%d rebuilds, %d buffered, %d tombstones; want 1, %d, %d", s.Rebuilds(), s.Buffered(), s.treeDead, n/10, n/50)
	}
	s.waste.Store(0)
	return s, rng
}

// query runs one query of every kind the store has.
func query(s *Store[[]float64], q []float64) {
	s.Range(q, 0.2)
	s.KNN(q, 5)
	s.RangeFarther(q, 1.5)
	s.KFarthest(q, 3)
}

// TestReadsAloneNeverRebuild: queries only add to the waste, far past a
// build's cost here, and leave the buffer and the tombstones in place.
func TestReadsAloneNeverRebuild(t *testing.T) {
	s, rng := ruleStore(t, 500)
	for s.waste.Load() < 3*s.cost {
		query(s, randVec(rng, 4))
	}
	if s.Rebuilds() != 1 || s.Buffered() != 50 || s.treeDead != 10 {
		t.Errorf("reads wasting %d distances against a build of %d: %d rebuilds, %d buffered, %d tombstones",
			s.waste.Load(), s.cost, s.Rebuilds(), s.Buffered(), s.treeDead)
	}
}

// TestWriteAfterWastedBuildRebuilds: a write while the waste is short of
// the last build's cost leaves the store as it is; the first write after
// it has reached it rebuilds, and the waste starts again from zero.
func TestWriteAfterWastedBuildRebuilds(t *testing.T) {
	s, rng := ruleStore(t, 500)
	if s.cost <= int64(s.Len()) {
		t.Fatalf("a build of %d items cost %d distances: the floor, not the cost, would decide", s.Len(), s.cost)
	}
	for {
		before := s.waste.Load()
		s.Range(randVec(rng, 4), 0.2)
		if s.waste.Load() >= s.cost {
			break
		}
		if s.waste.Load() == before {
			t.Fatal("a query over a buffer wasted nothing")
		}
		if err := s.Insert(randVec(rng, 4)); err != nil { // an insert wastes nothing
			t.Fatal(err)
		}
		if s.Rebuilds() != 1 {
			t.Fatalf("rebuilt at a waste of %d, a build costs %d", s.waste.Load(), s.cost)
		}
	}
	if err := s.Insert(randVec(rng, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Rebuilds() != 2 || s.Buffered() != 0 || s.treeDead != 0 || s.waste.Load() != 0 {
		t.Errorf("the write after a build's worth of waste: %d rebuilds, %d buffered, %d tombstones, waste %d",
			s.Rebuilds(), s.Buffered(), s.treeDead, s.waste.Load())
	}
}

// TestInsertsAloneRebuildOnlyAtTheCap: inserts waste nothing, so a store
// that only takes them rebuilds once its buffer outnumbers its tree, and
// not before.
func TestInsertsAloneRebuildOnlyAtTheCap(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 2))
	initial := make([][]float64, 300)
	for i := range initial {
		initial[i] = randVec(rng, 4)
	}
	s, err := New(initial, metric.L2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range []int{300, 601} {
		for i := 1; i <= tree+1; i++ {
			if err := s.Insert(randVec(rng, 4)); err != nil {
				t.Fatal(err)
			}
			if i <= tree && s.Buffered() != i {
				t.Fatalf("a tree of %d rebuilt at the %d-th insert", tree, i)
			}
		}
		if s.Buffered() != 0 || s.tree.Len() != s.Len() || s.Len() != 2*tree+1 {
			t.Fatalf("%d inserts into a tree of %d: %d buffered, a tree of %d", tree+1, tree, s.Buffered(), s.tree.Len())
		}
	}
}

// TestSmallStoresDoNotRebuildEveryWrite: a store that starts empty, whose
// builds cost next to nothing, rebuilds at the cap as its tree doubles
// when it takes inserts alone, on the floor of its live items when reads
// come between them, and as its tree halves when it is emptied.
func TestSmallStoresDoNotRebuildEveryWrite(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 3))
	for _, reads := range []bool{false, true} {
		s, err := New[[]float64](nil, metric.L2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		const writes = 200
		var items [][]float64
		for i := 0; i < writes; i++ {
			items = append(items, randVec(rng, 4))
			if err := s.Insert(items[i]); err != nil {
				t.Fatal(err)
			}
			if reads {
				s.KNN(randVec(rng, 4), 1)
			}
		}
		rebuilds := s.Rebuilds() - 1
		if limit := map[bool]int{false: 8, true: writes / 4}[reads]; rebuilds > limit {
			t.Errorf("reads %v: %d rebuilds over %d inserts into an empty store, want at most %d", reads, rebuilds, writes, limit)
		}
		for _, v := range items {
			if _, err := s.Delete(v); err != nil {
				t.Fatal(err)
			}
		}
		if deletes := s.Rebuilds() - 1 - rebuilds; deletes > writes/4 || s.Len() != 0 {
			t.Errorf("reads %v: %d rebuilds over %d deletes, %d items left", reads, deletes, writes, s.Len())
		}
	}
}

// TestLoadedStoreDoesNotRebuildAtFirstWrite: a loaded store has wasted
// nothing and prices its rebuild at what building its tree measured, so
// it goes on as the store that saved it: the same writes and reads
// rebuild both at the same operations.
func TestLoadedStoreDoesNotRebuildAtFirstWrite(t *testing.T) {
	s, rng := ruleStore(t, 400)
	var buf bytes.Buffer
	if err := s.Save(&buf, codec.EncodeVector); err != nil { // a rebuild: Save compacts
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), metric.L2, codec.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.cost != s.cost || loaded.waste.Load() != 0 || s.waste.Load() != 0 {
		t.Fatalf("loaded: a rebuild at %d, waste %d; saved: a rebuild at %d, waste %d", loaded.cost, loaded.waste.Load(), s.cost, s.waste.Load())
	}
	v := randVec(rng, 4)
	if err := loaded.Insert(v); err != nil {
		t.Fatal(err)
	}
	if n, err := loaded.Delete(v); err != nil || n != 1 || loaded.Rebuilds() != 1 {
		t.Fatalf("first writes: Delete removed %d (%v), %d rebuilds", n, err, loaded.Rebuilds())
	}
	if err := s.Insert(v); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(v); err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 3000; op++ {
		v := randVec(rng, 4)
		for _, st := range []*Store[[]float64]{s, loaded} {
			if op%3 == 0 {
				if err := st.Insert(v); err != nil {
					t.Fatal(err)
				}
			} else {
				st.Range(v, 0.3)
			}
		}
		if a, b := s.Rebuilds(), loaded.Rebuilds()+1; a != b {
			t.Fatalf("op %d: the saved store has rebuilt %d times since, the loaded one %d", op, a-2, b-2)
		}
	}
	if s.Rebuilds() < 4 {
		t.Errorf("%d rebuilds over 1000 inserts between 2000 queries", s.Rebuilds())
	}
}
