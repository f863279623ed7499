package mvp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"mvptree/internal/index"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
	"mvptree/internal/testutil"
)

// raggedGolden pins, per tree shape, the trees of every size from 0 to
// 200 — where rank arithmetic is ragged: the empty tree, bare leaves,
// fewer shells than m, shells left empty once sv2 is taken, fewer parts
// than m — and the traversals over them: save is the SHA-256 of their
// Save bytes concatenated in order of size, stats that of every query's
// SearchStats and counter delta. Recorded from the commit before nodes
// moved into index-addressed arenas (PR 21), with pointer nodes; never
// re-record a row because the layout of a tree in memory changed. The
// points are on an integer grid under L1, so distances tie and the rows
// pin where the partition step puts equal distances too: the save column
// was re-recorded once, when that became "by id" and the order inside a
// shell stopped being a sort's (PR 23); TestRaggedShapesAreSizesAlone
// holds the shapes across it, and the stats column moved with the trees.
var raggedGolden = map[string]struct{ save, stats string }{
	"v1/m2/k-1/p-1": {"2d2aa18d2926db09e0a8ab18b0dbf47956de034be52fe6d5940f17c87f91bece", "5f4eb81c81ed07a8ca07b554eeb475c092d21fea82507f983d535773e846caca"},
	"v1/m2/k-1/p5":  {"59d37bf5c95722c4c82008d604498e33a4d92d4e2957b35e2722be52562bcb30", "5f4eb81c81ed07a8ca07b554eeb475c092d21fea82507f983d535773e846caca"},
	"v1/m2/k1/p-1":  {"35af85adfc4430cb5b25d1b0e8ad7c7a4661048a0811a26f7683525ad6d29eef", "120cbecbabc260d31fa9e1b8e0064aec9267670ca0c53599b87e5fa827ef7f81"},
	"v1/m2/k1/p5":   {"cedbf43f571a128bf03427e3d024708b767485cf836071ab68b7356c53e322ad", "813cfe75c21deb82ba7aa13ab4cf235a860b5814ac63654ba8ad6f1265607fd2"},
	"v1/m2/k13/p-1": {"add1ac1d9c9693ca7d0564f007f6fdfdb0166e0c5cf7294b233b904d8aa5b2bf", "f81d579cc5ab45f0e1b856b93122e10bc33903cb632246e89c88ca8e663ba6a1"},
	"v1/m2/k13/p5":  {"271265d09c58f810cbc21a3be7981ea6df49cdbf60cecadd23b2d211df7dc961", "b5ec26e738647f9f50347559b1b6bda07f0094dc86f5d7a672ec15478da22afd"},
	"v1/m3/k-1/p-1": {"e31887eca819419314ddbba17633a764e1e03f268497a57c10ed834c2fba8775", "a0840a55b77220b8910f66120d1cb2fdbb4fef03ec062e9760c7c70a8d0baed2"},
	"v1/m3/k-1/p5":  {"59b053b8929afac2c8041579be1726a82a5d6b69ae5da734986b4b1d09d1e9d4", "a0840a55b77220b8910f66120d1cb2fdbb4fef03ec062e9760c7c70a8d0baed2"},
	"v1/m3/k1/p-1":  {"1e14904033d14941d918b7b442ad131353347e7275aaa8aec409d6bf7d7404c4", "a33dcf4fba972e841bec5475ca159ad590dbf6615a0863ce80d4bd376e79ca2b"},
	"v1/m3/k1/p5":   {"f234519ce9c1b4260b584bc6f1720e7d8a56067ef04c315d2200590506f9bec8", "b1e72141775e5e44a161cd35a00f6ae685d1163412e6c79b592ee8554bd4fc80"},
	"v1/m3/k13/p-1": {"949314c65ff626a0de8f49e43b8459b3104ce390aef4aea65e1ec7f8d93b7c57", "8e9f155153aeec110d2bb3a18721ce720018da3f25b1904ee4bda7f68c22eec1"},
	"v1/m3/k13/p5":  {"1601ce0e5c63c44e9d3e696b55158ec08204928a60040c514955ae615948f9ce", "333cf9b8e175d2c79cdd91794c30a6f13b7af40b0820777a78b2f8f71c4ccd78"},
	"v1/m4/k-1/p-1": {"8ea66a458288ad95b8a488574baf7483788bdc80e4131f70cb086cd1f761c207", "78240a5ccd138dd8cd6919c9c12386f63b8a3dfa41a27e30e75939fd925ef823"},
	"v1/m4/k-1/p5":  {"22b7b022795ef54804967d317742b170c9c8c116f0f192133351e5ea50e0f735", "78240a5ccd138dd8cd6919c9c12386f63b8a3dfa41a27e30e75939fd925ef823"},
	"v1/m4/k1/p-1":  {"59d7cdb6af274f46c1c4750dc002798c61ceef79e1a19bd2955518c66efa0387", "d04546e36f37359fd6f57f196278de8e096e58d4435122aba56318a105f8d9bf"},
	"v1/m4/k1/p5":   {"15337960b7a127a86bcf6291de3119b074c924a3c0e859bc8427ae9ba6fb0e30", "f2a584b0704679119512defe561a41c1d877485dc459ff3753e9725e33a9af1e"},
	"v1/m4/k13/p-1": {"bd7b1b1b320160596e7d891398f036143c28b61fc26c6aa5599d393c0d4f7f8b", "f55f12aab06d8f656473f838a134287799431b615825df25d857e19f669530a4"},
	"v1/m4/k13/p5":  {"072ba1ba393f09d3ed5b18c9a43de3724b0eff7c706b86ca6a9e738585157969", "6f058509235804a922b5b13ae11623c32e46e2c897a89479bce99d26f0279355"},
	"v2/m2/k-1/p-1": {"d5468b1ce19f67c01e7cb77ae86b250d01b3dec709c0e18deeac19dff2bfe91b", "7e6a197b830cf49de90744bab677007e48cf7bf12f9efc6f649ceb9594cb0379"},
	"v2/m2/k-1/p5":  {"641bc409d65ca212c6822ac6d8a3975b4ffb72dd5b44af6339f41ab076010a3d", "7e6a197b830cf49de90744bab677007e48cf7bf12f9efc6f649ceb9594cb0379"},
	"v2/m2/k1/p-1":  {"f3e6e3481f7ba60c22feea374b290484ca9869a1875ba7f09eb61cc766028466", "3272d3aaf379872594117a0741bc8371350ee36b7e970dbe4e1ff6128e18b06d"},
	"v2/m2/k1/p5":   {"49891d2fdc65f74db6683490536bbaf7d7d853ac6d95c965f2ac1c327d902b89", "7599b8b11ac2948bac9f9aa9f228f0228669c1d677e8a1c93df09ba2ef7bf16b"},
	"v2/m2/k13/p-1": {"fa0abcf0bfae63fcee2d8376ef1a07b4e5b0c84231f80be23fb7e2d23e525c4a", "6686e390c0f1c5d764c5d5d5c881b88da4f7d50ac00d1fab4e605a925aaf8736"},
	"v2/m2/k13/p5":  {"8eba040241dc664d6cd3d305bb36d14b26cb1ee47b6bb0c3308798a40f5dee0a", "01deea0e49a74c61fb286ed150c16d431d0906dde71a7a4cbb1669357c6bd2b6"},
	"v2/m3/k-1/p-1": {"3c34a8ee6aa6546addec8be0602ec055055d9d3579383f19d05d236569b9326e", "644a76de023b8cd0bb9f60d7771eb25c8f74202be2e464dfd4a8ff32b68bb6b8"},
	"v2/m3/k-1/p5":  {"57f461c518b229bdc640b167e1db37d2296c00c1bd8c7afa8ed8527bfdc4c288", "644a76de023b8cd0bb9f60d7771eb25c8f74202be2e464dfd4a8ff32b68bb6b8"},
	"v2/m3/k1/p-1":  {"aca15d9a5903e4711d12c76da216d409265c8eee627eece800da730c41a05ebb", "5f8c224ec1068f6663f343ac47e33413647ab0fdcedebf89264dcfdefa773afb"},
	"v2/m3/k1/p5":   {"736164be33b43810b1111c7e78c0a12e2c0d1849a20d517f736eebc3f11f36b5", "fdcc4f3cc1938bcab4defb1143dd94fc581b958879f34ea097b36f7dbff92d5a"},
	"v2/m3/k13/p-1": {"03b12fc168f245ecdeae326099215396412a4830b484ad333ff2bd7371eb941a", "c99b04a6de18e8f454e7730cfc17d9f3f91aafb1c5185104c6c873f3468321ad"},
	"v2/m3/k13/p5":  {"3f9e68665112b91ea030743439397ea8fd7ba7bf82ea653e0e8e511d29de4086", "fdbe513f2d585397a4e7762dcc64abea859bbd37cdc2ab590f76acd98202df64"},
	"v2/m4/k-1/p-1": {"183c51cbaed369bf1b318c7684888aa8c946d16e61135e3a30236d445de8b6a3", "014e7abfe142b13d906525b8a506f934e57f09a6ba6f9b7a8f0e5ca54ef306df"},
	"v2/m4/k-1/p5":  {"d920350a7fb9014206f983bf2fdc2e588f55f6dfd70bd67fed59e519e4ec1912", "014e7abfe142b13d906525b8a506f934e57f09a6ba6f9b7a8f0e5ca54ef306df"},
	"v2/m4/k1/p-1":  {"3f74b88c42a37f0a2dfd198319436a81491db9a91805f8da6d7ec799e95ee765", "f85420561161a755f6ff1c44acceccced05e5064fc7d277b5933a961b5703491"},
	"v2/m4/k1/p5":   {"ffd6cf253359fb5de9448d13cdad1f4a4b470f3203ce14c890821e6abb63a840", "986719d8b5322b32a45bd37c00a8448b419885380c496541e86ce55a68172f3e"},
	"v2/m4/k13/p-1": {"cf8be8945743e01802e82b77c50bfa5ab2226b9bab087c0cf0bdfe779bb6e04b", "6a71d0a261447fc11d0083c49e284a8e1da9a573b569c95ff4d9aa39d99ed6d4"},
	"v2/m4/k13/p5":  {"dd2969eae40a79660f97507bfe7d4b7e7d7bbab40c38a3e0db097e10753f9ade", "41c36977cc65cf70bedff3726e8e2ea75543e98b830e1618ad6227ca0f76ad91"},
}

func raggedPoint(id int) (x, y int) { return id * 7919 % 1013, id * 104729 % 503 }

func raggedDist(a, b int) float64 {
	ax, ay := raggedPoint(a)
	bx, by := raggedPoint(b)
	return abs(float64(ax-bx)) + abs(float64(ay-by))
}

func TestRaggedShapesAreTheParents(t *testing.T) {
	for _, v := range []int{1, 2} {
		for _, m := range []int{2, 3, 4} {
			for _, k := range []int{-1, 1, 13} {
				for _, p := range []int{-1, 5} {
					name := fmt.Sprintf("v%d/m%d/k%d/p%d", v, m, k, p)
					want := raggedGolden[name]
					for _, workers := range []int{1, 4} {
						opts := Options{Vantages: v, Partitions: m, LeafCapacity: k, PathLength: p, Build: Build{Workers: workers}}
						// The trees of four workers are those of one, byte for
						// byte, so theirs are not queried again.
						save, stats := raggedHashes(t, name, opts, workers == 1)
						if workers > 1 {
							stats = want.stats
						}
						if save != want.save || stats != want.stats {
							t.Errorf("%q: {%q, %q}, // workers=%d; want {%q, %q}", name, save, stats, workers, want.save, want.stats)
						}
					}
				}
			}
		}
	}
}

// raggedHashes builds opts' tree of every size and returns the two hashes
// raggedGolden pins; with query set it checks every tree's invariants and
// its answers against the linear scan's, without it stats is of nothing.
func raggedHashes(t *testing.T, name string, opts Options, query bool) (save, stats string) {
	t.Helper()
	saveHash, statsHash := sha256.New(), sha256.New()
	for n := 0; n <= 200; n++ {
		ids := testutil.IDs(n)
		opts.Seed = uint64(n)
		c := metric.NewCounter(raggedDist)
		tree, err := New(ids, c, opts)
		if err != nil {
			t.Fatalf("%s n=%d: %v", name, n, err)
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf, encodeID); err != nil {
			t.Fatalf("%s n=%d: %v", name, n, err)
		}
		saveHash.Write(buf.Bytes())
		if !query {
			continue
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s n=%d: %v", name, n, err)
		}

		// One query on a point, one between points, one far outside.
		truth := linear.New(ids, metric.NewCounter(raggedDist))
		var reqs []index.Query[int]
		for _, q := range []int{n / 2, n + 3, 5000} {
			for _, r := range []float64{0, 60, 400} {
				reqs = append(reqs, index.RangeQuery(q, r))
			}
			for _, kk := range []int{1, 7} {
				reqs = append(reqs, index.KNNQuery(q, kk))
			}
		}
		for _, req := range reqs {
			before := c.Count()
			got := tree.Search(req)
			fmt.Fprintf(statsHash, "%+v %d\n", got.Stats, c.Count()-before)
			want := truth.Search(req)
			if req.K > 0 {
				if len(got.Neighbors) != len(want.Neighbors) {
					t.Fatalf("%s n=%d: KNN(%d, %d) returned %d neighbors, want %d", name, n, req.Point, req.K, len(got.Neighbors), len(want.Neighbors))
				}
				for i, nb := range got.Neighbors {
					if nb.Dist != want.Neighbors[i].Dist || raggedDist(req.Point, nb.Item) != nb.Dist {
						t.Fatalf("%s n=%d: KNN(%d, %d)[%d] = %v, want distance %g", name, n, req.Point, req.K, i, nb, want.Neighbors[i].Dist)
					}
				}
				continue
			}
			g, w := append([]int(nil), got.Items...), append([]int(nil), want.Items...)
			sort.Ints(g)
			sort.Ints(w)
			if !slices.Equal(g, w) {
				t.Fatalf("%s n=%d: Range(%d, %g) = %v, want %v", name, n, req.Point, req.Radius, g, w)
			}
		}
		testutil.CheckBatch(t, tree, c, reqs, []int{len(reqs)}, func(a, b int) bool { return a == b })
	}
	return hex.EncodeToString(saveHash.Sum(nil)), hex.EncodeToString(statsHash.Sum(nil))
}

// TestRaggedShapesAreSizesAlone pins, in one hash recorded at the commit
// before the partition step became a selection (PR 23), what raggedGolden's
// re-recorded Save hashes cannot show unmoved: the Shape and build cost of
// every one of its trees. Splits are by rank, so which points tie, and
// where a tie's points go, changes neither.
func TestRaggedShapesAreSizesAlone(t *testing.T) {
	h := sha256.New()
	for _, v := range []int{1, 2} {
		for _, m := range []int{2, 3, 4} {
			for _, k := range []int{-1, 1, 13} {
				for _, p := range []int{-1, 5} {
					for n := 0; n <= 200; n++ {
						opts := Options{Vantages: v, Partitions: m, LeafCapacity: k, PathLength: p, Build: Build{Seed: uint64(n)}}
						tree, st, err := NewWithStats(testutil.IDs(n), metric.NewCounter(raggedDist), opts)
						if err != nil {
							t.Fatalf("v%d/m%d/k%d/p%d n=%d: %v", v, m, k, p, n, err)
						}
						shape := tree.Shape()
						shape.FilterStep, shape.FilterSlack = 0, 0 // the grid follows the largest distance stored
						// Recorded before Stats had the cascade's fields, zero in a tree nothing armed.
						line, ok := strings.CutSuffix(fmt.Sprintf("%+v", shape), " CascadePivots:0 CascadeBytes:0 CascadeStep:0 CascadeSlack:0}")
						if !ok {
							t.Fatalf("v%d/m%d/k%d/p%d n=%d: a cascade on a fresh tree: %+v", v, m, k, p, n, shape)
						}
						fmt.Fprintf(h, "%s} %d %d %d\n", line, st.Distances, st.Nodes, st.MaxDepth)
					}
				}
			}
		}
	}
	const want = "29125ba3569e203c36cc2ab311c714e48623571aa9ad94d07925dfdd9a8c6a47"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("shapes and build costs hash to %s, want %s", got, want)
	}
}
