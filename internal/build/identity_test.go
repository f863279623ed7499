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
	"mvptree/internal/index"
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
// changes a hash. The mvp rows were re-recorded three times, each time
// because Save's bytes changed and the tree did not: when the leaf
// distances became float32 values (PR 15), when they became 16-bit codes
// under the MVPTREE2 grammar (PR 19), and when the header gained v under
// MVPTREE3 (PR 20). Each PR 19 and PR 20 row is the hash of what that
// commit's Save writes after its Load has read the parent commit's bytes
// for the same build — the same tree — checked once for all nine rows.
// The vptree rows were re-recorded in PR 20 too, as the v = 1 streams the
// constructor's trees save now that VPTREE1 is retired; that those are the
// trees internal/vptree built is pinned where the old bytes cannot be, by
// their answers (vptree.TestSameTreesAsSeparatePackage). The gmvp rows
// left with gmvp's serializer (PR 22); goldenGMVP pins the same trees.
//
// The mvp and mvp-random2 rows are built with RandomFirstVantage and
// were not otherwise re-recorded when the first vantage point became a
// selection: that they matched is the proof the switch restores the
// drawn build byte for byte. The mvp-spread rows pin the default, the
// same options without the switch.
var goldenSave = map[string]string{
	"mvp/uniform/1":          "9ebaa51fd1f70e90ac0e577c23deeac7e61783db8d45767e13ac6a93473fd442",
	"mvp/uniform/7":          "7002104309eb42c677e869e00b1e87965a569289dd5add327f0113b78113c0f2",
	"mvp/clustered/1":        "65d93ec71e2c8cfde907051b1e1c45a7bdb3000bfcfca946d274588a3642f7d0",
	"mvp/clustered/7":        "73e751447a9bb13992039b98833a48e4cc9e144304f9f155059b33b23cd6523e",
	"mvp-spread/uniform/1":   "a3f0d1c953ee2e9c110a630237087557180f58bfa402f1c2d027fd78c984f7e6",
	"mvp-spread/uniform/7":   "f072834c745fcb521866381045f6bfe5e8dcf38f5fa2a516fc48939fd4babe5d",
	"mvp-spread/clustered/1": "62f6dc91e1720ae5d2202f5357b593db2255b0c7498d57f39e4419964349d47f",
	"mvp-spread/clustered/7": "c31999f5fca22c64b0bddf56b36a2cbc21dcd97af0cbae736819895326734981",
	"mvp-random2/uniform/1":  "7d01f436062dcf638a8d77f4761531f01119182795d32c11daa6d7a9a81ef99e",
	"vptree/uniform/1":       "d20fb3544d2384c83524e3b2e265dcdc9379f5f8b0e30045a8e151fdf793ae8f",
	"vptree/uniform/7":       "01328602ba06b02a0df64cece61c04d17cfb906acdc154c594db94df623787fa",
	"vptree/clustered/1":     "158e0dcd073336b16177e89e196f3f634f1fc70b5b5bf5985e26bc645c93e183",
	"vptree/clustered/7":     "a8acf3c9bf3299fe560daf91b1ab18e09e4cce4bef161639175915992d4eeaf0",
}

// goldenGMVP pins the generalized trees without a serializer: SHA-256
// over Shape() and, for a fixed grid of range and kNN queries, every
// answer, its SearchStats and the counter delta it cost. Recorded from
// the trees the gmvp/* rows of goldenSave hashed (same options, data and
// seeds) at the last commit that had both, and never re-recorded since.
var goldenGMVP = map[string]string{
	"gmvp/uniform/1":   "40066f24d6e02a7dff93bbc7697c8f4e6d59e93469a023822799b04d80b3bec5",
	"gmvp/uniform/7":   "2c29d3f32d30adbb0b87de54c9f30497bb3ef4ccfc8e86e6fa6d1411cef1538b",
	"gmvp/clustered/1": "876173bfd1e7d74ba2bfb0a51bc41cbf9d7d388857d8a38c0cb3d9fee9f39689",
	"gmvp/clustered/7": "3134ede10b55c95f32fec36369671fb9580a8ca138d7ee7ecf3e585519b8f0ad",
}

// goldenShape pins, for every structure of the two tables above, what a
// build owes to sizes alone, so that a re-recorded hash cannot hide it
// moving: the tree's Shape — node, leaf and vantage-point counts, height,
// arena bytes — and the build's distances, nodes and depth. Splits are by
// rank, so none of it depends on which points a split put where, nor on
// the data: every (data, seed) row of a structure has the same line.
// Recorded at the commit before the partition step became a selection
// (PR 23).
var goldenShape = map[string]string{
	"mvp":         "{Nodes:820 Leaves:729 VantagePoints:1640 LeafItems:3360 Height:3 MaxPathLen:5 FilterBytes:47040 NodeBytes:70688 FilterStep:0 FilterSlack:0}; build: 37132 distances, 0 of them selecting, 820 nodes, depth 3",
	"mvp-spread":  "{Nodes:820 Leaves:729 VantagePoints:1640 LeafItems:3360 Height:3 MaxPathLen:5 FilterBytes:47040 NodeBytes:70688 FilterStep:0 FilterSlack:0}; build: 38868 distances, 1736 of them selecting, 820 nodes, depth 3",
	"mvp-random2": "{Nodes:1365 Leaves:1024 VantagePoints:2730 LeafItems:2270 Height:5 MaxPathLen:3 FilterBytes:22700 NodeBytes:120104 FilterStep:0 FilterSlack:0}; build: 54093 distances, 0 of them selecting, 1365 nodes, depth 5",
	"vptree":      "{Nodes:1093 Leaves:729 VantagePoints:1093 LeafItems:3907 Height:6 MaxPathLen:0 FilterBytes:15628 NodeBytes:65568 FilterStep:0 FilterSlack:0}; build: 33364 distances, 0 of them selecting, 1093 nodes, depth 6",
	"gmvp":        "{Nodes:585 Leaves:512 VantagePoints:1755 LeafItems:3245 Height:3 MaxPathLen:7}; build: 55743 distances, 0 of them selecting, 585 nodes, depth 3",
}

// shapeLine is a row of goldenShape.
func shapeLine(shape any, st build.Stats) string {
	if sh, ok := shape.(mvp.Stats); ok {
		sh.FilterStep, sh.FilterSlack = 0, 0 // the grid follows the data's largest distance
		shape = sh
	}
	return fmt.Sprintf("%+v; build: %d distances, %d of them selecting, %d nodes, depth %d", shape, st.Distances, st.SelectionDistances, st.Nodes, st.MaxDepth)
}

// goldenItems is the dataset of one (data, seed) row of the golden tables.
func goldenItems(data string, seed uint64) [][]float64 {
	const n, dim = 5000, 8
	rng := rand.New(rand.NewPCG(seed, 14))
	items := dataset.UniformVectors(rng, n, dim)
	if data == "clustered" { // drawn after the uniform set, as the rows were recorded
		items = dataset.ClusteredVectors(rng, n, dim, 250, 0.15)
	}
	return items
}

func TestGMVPFingerprint(t *testing.T) {
	for _, data := range []string{"uniform", "clustered"} {
		for _, seed := range []uint64{1, 7} {
			key := fmt.Sprintf("gmvp/%s/%d", data, seed)
			items := goldenItems(data, seed)
			queries := dataset.UniformQueries(rand.New(rand.NewPCG(seed, 15)), 6, 8)
			queries = append(queries, items[17], items[4242])
			for _, workers := range []int{1, 2, 4} {
				c := metric.NewCounter(metric.L2)
				tr, st, err := gmvp.NewWithStats(items, c, gmvp.Options{Build: build.Options{Workers: workers, Seed: seed}, Vantages: 3, Partitions: 2, LeafCapacity: 20, PathLength: 7})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", key, workers, err)
				}
				if got := shapeLine(tr.Shape(), st); got != goldenShape["gmvp"] {
					t.Errorf("%s workers=%d: %s, want %s", key, workers, got, goldenShape["gmvp"])
				}
				h := sha256.New()
				fmt.Fprintf(h, "%+v\n", tr.Shape())
				for _, q := range queries {
					for _, req := range []index.Query[[]float64]{
						index.RangeQuery(q, 0.25), index.RangeQuery(q, 0.5),
						index.KNNQuery(q, 1), index.KNNQuery(q, 10),
					} {
						before := c.Count()
						res := tr.Search(req)
						fmt.Fprintf(h, "%v %v %+v %d\n", res.Items, res.Neighbors, res.Stats, c.Count()-before)
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != goldenGMVP[key] {
					t.Errorf("%s workers=%d: fingerprint %s, want %s", key, workers, got, goldenGMVP[key])
				}
			}
		}
	}
}

// goldenTrees are the builds goldenSave hashes: name and options.
var goldenTrees = []struct {
	name string
	opts mvp.Options
}{
	{"mvp", mvp.Options{Partitions: 3, LeafCapacity: 20, PathLength: 5, RandomFirstVantage: true}},
	{"mvp-spread", mvp.Options{Partitions: 3, LeafCapacity: 20, PathLength: 5}},
	{"mvp-random2", mvp.Options{Partitions: 2, LeafCapacity: 9, PathLength: 3, RandomFirstVantage: true, RandomSecondVantage: true}},
}

// goldenTree builds one row of goldenSave: an mvp-tree of goldenTrees, or
// the vp-tree of order 3 and bucket size 10.
func goldenTree(name string, o build.Options, items [][]float64) (*mvp.Tree[[]float64], build.Stats, error) {
	for _, g := range goldenTrees {
		if g.name == name {
			g.opts.Build = o
			return mvp.NewWithStats(items, metric.NewCounter(metric.L2), g.opts)
		}
	}
	return vptree.NewWithStats(items, metric.NewCounter(metric.L2), vptree.Options{Build: o, Order: 3, LeafCapacity: 10})
}

func TestGoldenSaveBytes(t *testing.T) {
	for _, name := range []string{"mvp", "mvp-spread", "mvp-random2", "vptree"} {
		for _, data := range []string{"uniform", "clustered"} {
			for _, seed := range []uint64{1, 7} {
				key := fmt.Sprintf("%s/%s/%d", name, data, seed)
				want, ok := goldenSave[key]
				if !ok {
					continue
				}
				items := goldenItems(data, seed)
				for _, workers := range []int{1, 2, 4} {
					tr, st, err := goldenTree(name, build.Options{Workers: workers, Seed: seed}, items)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					var buf bytes.Buffer
					if err := tr.Save(&buf, codec.EncodeVector); err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					sum := sha256.Sum256(buf.Bytes())
					if got := hex.EncodeToString(sum[:]); got != want {
						t.Errorf("%s workers=%d: Save bytes hash %s, want %s", key, workers, got, want)
					}
					if got := shapeLine(tr.Shape(), st); got != goldenShape[name] {
						t.Errorf("%s workers=%d: %s, want %s", key, workers, got, goldenShape[name])
					}
				}
			}
		}
	}
}
