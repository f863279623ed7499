package build_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"

	"mvptree/internal/build"
	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/gmvp"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/vptree"
)

// goldenSave pins the trees themselves: SHA-256 of the Save bytes of
// each structure, recorded from the commit before construction moved to
// the range-partitioned permutation (PR 14). The data are tie-free
// (continuous coordinates), so the hashes do not depend on how the
// sort breaks ties and stand in for the deleted copying build: any
// change of vantage choice, cutoff, leaf order or stored distance
// changes a hash. The mvp rows were re-recorded when leaf distances
// became float32 (PR 15): each is the hash of the PR 14 bytes with every
// leaf distance x replaced by what mvp's narrow stores for it, checked
// once against that commit; vptree and gmvp rows are the originals.
//
// The mvp and mvp-random2 rows are built with RandomFirstVantage and
// were not re-recorded when the first vantage point became a selection:
// that they still match is the proof the switch restores the drawn
// build byte for byte. The mvp-spread rows pin the default, the same
// options without the switch.
var goldenSave = map[string]string{
	"mvp/uniform/1":          "98961428886633d34d3bdd2590e50a9eadf3277f2eab56149f80e414cee5637d",
	"mvp/uniform/7":          "8ac097547dce861794df4f981abb719bbc626b181f597ce4ee9f932a417a1341",
	"mvp/clustered/1":        "f9f7bc5f9f7411cfc21f825ff875ecfd9adfe9c3a11822fa86fd4147caefb27a",
	"mvp/clustered/7":        "473b95978896dcd8812a324800a3e9e352a12075abd09e246b3e171548e239b7",
	"mvp-spread/uniform/1":   "22a2175948b88bd021528c73c8a18f8cd43ad99f7a6c7ea98b518839f4dab578",
	"mvp-spread/uniform/7":   "3a0360fcae6b75f51d08992c7ee67311084c40a518f4de0e383968b487f85eeb",
	"mvp-spread/clustered/1": "0eee69d3c376382a2cc3e363bebe355f30ccc98d776462adc30f87c923a667f3",
	"mvp-spread/clustered/7": "1db2cb9521fb4f4a0ed06ad3c96ad959ac7328d5f8aada8555f62dbc50b14f63",
	"mvp-random2/uniform/1":  "cd5694d130de45da37354adc09880f1f63a2e56efcf931d09b509925ed93afe6",
	"vptree/uniform/1":       "d0e3c81c479c88cf7d4276a9674b672a0f2ede9ed557dc21d491a5d6e56ae177",
	"vptree/uniform/7":       "82b4591c8fc17d89dbe601313873ba12d9feb3cd31c55e591837cf71d7b37475",
	"vptree/clustered/1":     "40ec20629faad795eb59ed373f85eff97cf978c9de22c3d4269964369ea26301",
	"vptree/clustered/7":     "ca66f91039564f67d0b457f456d32ef7c5e25c395abe9e29cf810deedc2f953a",
	"gmvp/uniform/1":         "a4255b6a102474d81afbb8d3be9432aa7a9962bcbbb5d8cc98d784b076b21bab",
	"gmvp/uniform/7":         "003e2767371c1e269129cce832e68ed1dc76ebc11fa510555582680e1ec1fcfe",
	"gmvp/clustered/1":       "d1e459f640274aa63f4fcc61831665d7a25bcb474041261d193f87dd40798cde",
	"gmvp/clustered/7":       "b116b83d4ba4c40da8af0bad66967c3ac8efa18184d90dc172d783825c64be58",
}

func TestGoldenSaveBytes(t *testing.T) {
	const n, dim = 5000, 8
	type saveFn func(opts build.Options, items [][]float64, buf *bytes.Buffer) error
	structures := []struct {
		name string
		save saveFn
	}{
		{"mvp", func(o build.Options, items [][]float64, buf *bytes.Buffer) error {
			tr, err := mvp.New(items, metric.NewCounter(metric.L2), mvp.Options{Build: o, Partitions: 3, LeafCapacity: 20, PathLength: 5, RandomFirstVantage: true})
			if err != nil {
				return err
			}
			return tr.Save(buf, codec.EncodeVector)
		}},
		{"mvp-spread", func(o build.Options, items [][]float64, buf *bytes.Buffer) error {
			tr, err := mvp.New(items, metric.NewCounter(metric.L2), mvp.Options{Build: o, Partitions: 3, LeafCapacity: 20, PathLength: 5})
			if err != nil {
				return err
			}
			return tr.Save(buf, codec.EncodeVector)
		}},
		{"mvp-random2", func(o build.Options, items [][]float64, buf *bytes.Buffer) error {
			tr, err := mvp.New(items, metric.NewCounter(metric.L2), mvp.Options{Build: o, Partitions: 2, LeafCapacity: 9, PathLength: 3, RandomFirstVantage: true, RandomSecondVantage: true})
			if err != nil {
				return err
			}
			return tr.Save(buf, codec.EncodeVector)
		}},
		{"vptree", func(o build.Options, items [][]float64, buf *bytes.Buffer) error {
			tr, err := vptree.New(items, metric.NewCounter(metric.L2), vptree.Options{Build: o, Order: 3, LeafCapacity: 10})
			if err != nil {
				return err
			}
			return tr.Save(buf, codec.EncodeVector)
		}},
		{"gmvp", func(o build.Options, items [][]float64, buf *bytes.Buffer) error {
			tr, err := gmvp.New(items, metric.NewCounter(metric.L2), gmvp.Options{Build: o, Vantages: 3, Partitions: 2, LeafCapacity: 20, PathLength: 7})
			if err != nil {
				return err
			}
			return tr.Save(buf, codec.EncodeVector)
		}},
	}
	for _, s := range structures {
		for _, data := range []string{"uniform", "clustered"} {
			for _, seed := range []uint64{1, 7} {
				key := fmt.Sprintf("%s/%s/%d", s.name, data, seed)
				want, ok := goldenSave[key]
				if !ok {
					continue
				}
				rng := rand.New(rand.NewPCG(seed, 14))
				items := dataset.UniformVectors(rng, n, dim)
				if data == "clustered" {
					items = dataset.ClusteredVectors(rng, n, dim, 250, 0.15)
				}
				for _, workers := range []int{1, 2, 4} {
					var buf bytes.Buffer
					if err := s.save(build.Options{Workers: workers, Seed: seed}, items, &buf); err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					sum := sha256.Sum256(buf.Bytes())
					if got := hex.EncodeToString(sum[:]); got != want {
						t.Errorf("%s workers=%d: Save bytes hash %s, want %s", key, workers, got, want)
					}
				}
			}
		}
	}
}
