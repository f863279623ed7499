package dynamic

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"testing"

	"mvptree/internal/codec"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/testutil"
	"mvptree/internal/wire"
)

// TestSaveLoadRoundTrip runs over a store just built and over one Load
// read from an MVPDYN1 stream around an MVPTREE1 one (written by PR 18
// from the same 400 items and options): what Save writes next is MVPDYN2
// around MVPTREE4 either way.
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
				// Nothing to compact: the v1 store saves as it is, and
				// what it saves loads as the same store.
				resaved := reloadVectors(t, s)
				if got, want := vectorsOf(resaved), vectorsOf(s); !slices.Equal(got, want) {
					t.Fatalf("re-saved as %s: items\n%v, loaded\n%v", saveMagic, got, want)
				}
				if resaved.opts != s.opts || resaved.tree.Shape() != s.tree.Shape() {
					t.Fatalf("re-saved as %s: options %+v and tree %+v, loaded %+v and %+v",
						saveMagic, resaved.opts, resaved.tree.Shape(), s.opts, s.tree.Shape())
				}
				for qi := 0; qi < 8; qi++ {
					q := randVec(rng, 6)
					a, sa := s.RangeWithStats(q, 0.5)
					b, sb := resaved.RangeWithStats(q, 0.5)
					if !reflect.DeepEqual(a, b) || sa != sb {
						t.Fatalf("re-saved as %s: Range answers\n%v %+v, loaded\n%v %+v", saveMagic, b, sb, a, sa)
					}
					na, sa := s.KNNWithStats(q, 5)
					nb, sb := resaved.KNNWithStats(q, 5)
					if !reflect.DeepEqual(na, nb) || sa != sb {
						t.Fatalf("re-saved as %s: KNN answers\n%v %+v, loaded\n%v %+v", saveMagic, nb, sb, na, sa)
					}
				}
			}
			roundTrip(t, s, initial, rng)
		})
	}
}

// reloadVectors returns what Load makes of s's Save, a saveMagic stream
// that Save → Load → Save leaves as it is.
func reloadVectors(t *testing.T, s *Store[[]float64]) *Store[[]float64] {
	var buf, again bytes.Buffer
	if err := s.Save(&buf, codec.EncodeVector); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	if !bytes.HasPrefix(stream[1:], []byte(saveMagic)) || !bytes.Contains(stream, []byte("MVPTREE4")) {
		t.Fatalf("Save wrote %q..., not an MVPTREE4 stream inside a %s one", stream[:12], saveMagic)
	}
	loaded, err := Load(bytes.NewReader(stream), metric.L2, codec.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DistanceCount() != 0 {
		t.Errorf("loading computed %d distances", loaded.DistanceCount())
	}
	if err := loaded.Save(&again, codec.EncodeVector); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), stream) || loaded.DistanceCount() != 0 {
		t.Errorf("Save -> Load -> Save: %d bytes became %d, at %d distances", len(stream), again.Len(), loaded.DistanceCount())
	}
	return loaded
}

// vectorsOf returns the store's items, tree and buffer, in sorted order.
func vectorsOf(s *Store[[]float64]) []string {
	var out []string
	for _, v := range append(s.tree.Items(), s.buffer...) {
		out = append(out, fmt.Sprint(v))
	}
	slices.Sort(out)
	return out
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

	want := vectorsOf(s)
	loaded := reloadVectors(t, s)
	if s.Buffered() != 0 {
		t.Errorf("Save did not compact: %d buffered", s.Buffered())
	}
	if loaded.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), s.Len())
	}
	if got := vectorsOf(loaded); !slices.Equal(got, want) || !slices.Equal(vectorsOf(s), want) {
		t.Fatalf("items after Save -> Load:\n%v, saved\n%v", got, want)
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

// The header's v is the tree's, so a store built with the default spelled
// 0 comes back saying 2; k = -1, leaves of vantage points alone, has an
// encoding since MVPDYN2 (Save failed on it: "wire: negative length");
// Workers has none, being the building machine's. The reserved field
// reads 0.25, and the loaded store prices its next rebuild as the store
// that built the tree did.
func TestOptionsSurviveReload(t *testing.T) {
	for _, sw := range []struct {
		v, k     int
		sv1, sv2 bool
	}{{0, 7, false, false}, {2, 7, true, false}, {2, 7, false, true}, {0, 7, true, true}, {1, 7, false, false}, {1, 7, true, false},
		{1, -1, false, false}, {2, -1, false, false}, {0, 0, false, false}} {
		tree := mvp.Options{Vantages: sw.v, Partitions: 4, LeafCapacity: sw.k, PathLength: 3, Build: mvp.Build{Workers: 2, Seed: 5},
			RandomFirstVantage: sw.sv1, RandomSecondVantage: sw.sv2}
		s, err := New([][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}}, metric.L2, Options{Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		loaded := reloadVectors(t, s)
		var saved bytes.Buffer
		if err := loaded.Save(&saved, codec.EncodeVector); err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(bytes.NewReader(testutil.PayloadOf(saved.Bytes())))
		if f := r.Float(); f != reserved {
			t.Errorf("reserved field = %g", f)
		}
		if loaded.cost != s.cost || loaded.cost == 0 {
			t.Errorf("%+v: a loaded store prices its rebuild at %d distances, its build measured %d", tree, loaded.cost, s.cost)
		}
		if tree.Vantages == 0 {
			tree.Vantages = 2
		}
		tree.Workers = 0
		if o := loaded.opts.Tree; o != tree {
			t.Errorf("tree options = %+v, want %+v", o, tree)
		}
		if got, want := vectorsOf(loaded), vectorsOf(s); !slices.Equal(got, want) {
			t.Errorf("%+v: items %v, saved %v", tree, got, want)
		}
		if got := loaded.KNN([]float64{3.2}, 2); len(got) != 2 || got[0].Item[0] != 3 || got[1].Item[0] != 4 {
			t.Errorf("%+v: KNN(3.2, 2) = %v", tree, got)
		}
	}
}

// TestTreeOptionsReadOldStreams pins the MVPDYN1 options header, which
// counts build workers and spells k unshifted, in both its encodings:
// before RandomFirstVantage existed the flags byte was a bool for
// RandomSecondVantage.
func TestTreeOptionsReadOldStreams(t *testing.T) {
	for _, flags := range []byte{0, 1, 2} {
		want := mvp.Options{Vantages: 2, Partitions: 3, LeafCapacity: 9, PathLength: -1,
			RandomSecondVantage: flags == 1, RandomFirstVantage: flags == 2, Build: mvp.Build{Workers: 2, Seed: 11}}
		empty, err := mvp.New[int](nil, metric.NewCounter[int](nil), want)
		if err != nil {
			t.Fatal(err)
		}
		var tree bytes.Buffer
		if err := empty.Save(&tree, nil); err != nil {
			t.Fatal(err)
		}
		for _, asBool := range []bool{false, true} {
			if asBool && flags > 1 {
				continue
			}
			s, err := Load(bytes.NewReader(testutil.Seal(loadMagicV1, testutil.Payload(func(w *wire.Writer) {
				w.Float(0.25)
				w.Int(want.Partitions)
				w.Int(want.LeafCapacity)
				w.Int(want.PathLength + 1)
				if asBool {
					w.Bool(flags == 1)
				} else {
					w.Byte(flags)
				}
				w.Int(want.Workers)
				w.Uvarint(want.Seed)
				w.Uvarint(1) // rebuilds so far
				w.Int(0)     // items
				w.Bytes(tree.Bytes())
			}))), metric.L2, codec.DecodeVector)
			if err != nil {
				t.Fatalf("flags=%d bool=%v: %v", flags, asBool, err)
			}
			if got := s.opts.Tree; got != want || s.seq != 1 {
				t.Errorf("flags=%d bool=%v: old header read as %+v (seq %d), want %+v", flags, asBool, got, s.seq, want)
			}
		}
	}
}
