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
// changes a hash. The mvp rows were re-recorded twice, each time because
// Save's bytes for a leaf distance changed and nothing else: when the
// distances became float32 values (PR 15), and when they became 16-bit
// codes under the MVPTREE2 grammar (PR 19). Each PR 19 row is the hash of
// what that commit's Save writes after its Load has read the parent
// commit's MVPTREE1 bytes for the same build — the same tree, put on the
// grid — checked once for all nine rows. vptree and gmvp rows are the
// originals.
//
// The mvp and mvp-random2 rows are built with RandomFirstVantage and
// were not otherwise re-recorded when the first vantage point became a
// selection: that they matched is the proof the switch restores the
// drawn build byte for byte. The mvp-spread rows pin the default, the
// same options without the switch.
var goldenSave = map[string]string{
	"mvp/uniform/1":          "4b247dfa27c67437e39d84e2a0e6ad36f6593fac148ffe54eb8d123bebecc012",
	"mvp/uniform/7":          "fd50827ffcd285ea75bb9505459b05dfb4922b2ee5e2ace309be383e412f8541",
	"mvp/clustered/1":        "950a13efdafa36c22031d2cbb3f78711b97a3bddf2b8c7472804bd38ee9dd773",
	"mvp/clustered/7":        "d5795fbb3bc71655b685813b07471ebc59f066aee2a6773e092ff41ccb52baea",
	"mvp-spread/uniform/1":   "d62f02a1bcb021cfbf2a4f57fd3e93671bee04dbba34d455d9b19abe26fcb6cb",
	"mvp-spread/uniform/7":   "ab744aaf178ecd8d95a9c610623eabc15d7cbacfa419b34aaa4fac984cd17515",
	"mvp-spread/clustered/1": "2aeeaa527c2af589a9ec64a0f413adfe236ce61ec361badec37b3d095f8b83f6",
	"mvp-spread/clustered/7": "08675dc655af8be099ea1a92c5d3deed0d86ef7a3dbedccc45b3e533b2f23b15",
	"mvp-random2/uniform/1":  "23eec4913ef2ee276d8b1d0e1b5cb09495ed1c4a7ffdcb3858f8b161f9b14eea",
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
