package dynamic

import (
	"bytes"
	"math/rand/v2"
	"os"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/wire"
)

// TestSaveLoadRoundTrip runs over a store just built and over one whose
// tree Load read from an MVPTREE1 stream (written by PR 18 from the same
// 400 items and options): what Save writes next is MVPTREE2 either way.
func TestSaveLoadRoundTrip(t *testing.T) {
	for _, from := range []string{"built", "loaded from v1"} {
		t.Run(from, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(101, 5))
			initial := make([][]float64, 400)
			for i := range initial {
				initial[i] = randVec(rng, 6)
			}
			s, err := New(initial, metric.L2, Options{
				Tree: mvp.Options{Partitions: 3, LeafCapacity: 10, PathLength: 4, Build: mvp.Build{Seed: 9}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if from != "built" {
				v1, err := os.ReadFile("testdata/pr18_store_v1.dyn")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Contains(v1, []byte("MVPTREE1")) {
					t.Fatal("the fixture's tree is not an MVPTREE1 stream")
				}
				built := s
				if s, err = Load(bytes.NewReader(v1), metric.L2, codec.DecodeVector); err != nil {
					t.Fatal(err)
				}
				if err := s.tree.Validate(); err != nil {
					t.Fatal(err)
				}
				if got, want := s.tree.Shape(), built.tree.Shape(); got != want {
					t.Fatalf("loaded tree %+v, built %+v", got, want)
				}
			}
			roundTrip(t, s, initial, rng)
		})
	}
}

func roundTrip(t *testing.T, s *Store[[]float64], initial [][]float64, rng *rand.Rand) {
	// Dirty the store so Save has something to compact.
	for i := 0; i < 60; i++ {
		if err := s.Insert(randVec(rng, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Delete(initial[3]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf, codec.EncodeVector); err != nil {
		t.Fatal(err)
	}
	if s.Buffered() != 0 {
		t.Errorf("Save did not compact: %d buffered", s.Buffered())
	}
	loaded, err := Load(&buf, metric.L2, codec.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DistanceCount() != 0 {
		t.Errorf("loading computed %d distances", loaded.DistanceCount())
	}
	if loaded.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), s.Len())
	}
	for qi := 0; qi < 8; qi++ {
		q := randVec(rng, 6)
		a, b := s.Range(q, 0.5), loaded.Range(q, 0.5)
		if len(a) != len(b) {
			t.Fatalf("Range: %d vs %d results", len(a), len(b))
		}
		na, nb := s.KNN(q, 5), loaded.KNN(q, 5)
		for i := range na {
			if na[i].Dist != nb[i].Dist {
				t.Fatalf("KNN differs after reload")
			}
		}
	}
	// The loaded store remains fully dynamic.
	v := randVec(rng, 6)
	if err := loaded.Insert(v); err != nil {
		t.Fatal(err)
	}
	if got := loaded.Range(v, 0); len(got) != 1 {
		t.Errorf("insert after reload not found")
	}
	if n, err := loaded.Delete(v); err != nil || n != 1 {
		t.Errorf("delete after reload: %d, %v", n, err)
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	s, err := New[[]float64](nil, metric.L2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf, codec.EncodeVector); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, metric.L2, codec.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 {
		t.Errorf("Len = %d", loaded.Len())
	}
	if err := loaded.Insert([]float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 1 {
		t.Errorf("post-insert Len = %d", loaded.Len())
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewPCG(102, 5))
	initial := make([][]float64, 50)
	for i := range initial {
		initial[i] = randVec(rng, 3)
	}
	s, err := New(initial, metric.L2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf, codec.EncodeVector); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for _, i := range []int{5, len(valid) / 2, len(valid) - 3} {
		data := append([]byte(nil), valid...)
		data[i] ^= 0x11
		if _, err := Load(bytes.NewReader(data), metric.L2, codec.DecodeVector); err == nil {
			t.Errorf("byte %d flipped: Load succeeded", i)
		}
	}
}

// The header has no field for Vantages: Load reads it off the tree, so a
// store built with the default spelled 0 comes back saying 2.
func TestOptionsSurviveReload(t *testing.T) {
	for _, sw := range []struct {
		v        int
		sv1, sv2 bool
	}{{0, false, false}, {2, true, false}, {2, false, true}, {0, true, true}, {1, false, false}, {1, true, false}} {
		tree := mvp.Options{Vantages: sw.v, Partitions: 4, LeafCapacity: 7, PathLength: 3, Build: mvp.Build{Seed: 5},
			RandomFirstVantage: sw.sv1, RandomSecondVantage: sw.sv2}
		s, err := New([][]float64{{1}, {2}, {3}}, metric.L2, Options{Tree: tree, RebuildFraction: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf, codec.EncodeVector); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, metric.L2, codec.DecodeVector)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.opts.RebuildFraction != 0.5 {
			t.Errorf("RebuildFraction = %g", loaded.opts.RebuildFraction)
		}
		if tree.Vantages == 0 {
			tree.Vantages = 2
		}
		if o := loaded.opts.Tree; o != tree {
			t.Errorf("tree options = %+v, want %+v", o, tree)
		}
	}
}

// TestTreeOptionsReadOldStreams pins the options header against the
// encoding written before RandomFirstVantage existed, where the flags
// byte was a bool for RandomSecondVantage.
func TestTreeOptionsReadOldStreams(t *testing.T) {
	for _, sv2 := range []bool{false, true} {
		want := mvp.Options{Partitions: 3, LeafCapacity: 9, PathLength: -1, RandomSecondVantage: sv2, Build: mvp.Build{Workers: 2, Seed: 11}}
		var old, cur bytes.Buffer
		w := wire.NewWriter(&old)
		w.Int(want.Partitions)
		w.Int(want.LeafCapacity)
		w.Int(want.PathLength + 1)
		w.Bool(sv2)
		w.Int(want.Workers)
		w.Uvarint(want.Seed)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		w = wire.NewWriter(&cur)
		saveTreeOptions(w, want)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(old.Bytes(), cur.Bytes()) {
			t.Errorf("sv2=%v: header bytes %x, old encoding %x", sv2, cur.Bytes(), old.Bytes())
		}
		r := wire.NewReader(&old)
		if got := loadTreeOptions(r); got != want || r.Err() != nil {
			t.Errorf("sv2=%v: old header read as %+v (err %v), want %+v", sv2, got, r.Err(), want)
		}
	}
}
