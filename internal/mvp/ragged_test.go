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
// It was re-recorded again, alone, when Save began writing MVPTREE4 and
// the trees did not move (PR 30): each row's hash is that of the parent
// commit's MVPTREE3 streams of the same trees, loaded and saved again,
// and the stats column is untouched.
var raggedGolden = map[string]struct{ save, stats string }{
	"v1/m2/k-1/p-1": {"0528d6d1267560c700503e34d51cd35f55c3e86fc074c71fa78fa95ed00a6ac4", "5f4eb81c81ed07a8ca07b554eeb475c092d21fea82507f983d535773e846caca"},
	"v1/m2/k-1/p5":  {"0bc8ab32a190c34f768afcea04eef63fdddb72c71a22125bef3d8a1be915a0ae", "5f4eb81c81ed07a8ca07b554eeb475c092d21fea82507f983d535773e846caca"},
	"v1/m2/k1/p-1":  {"894a802ad52af786bbd121d984f23744838c8608b5b4341963915b65735be38d", "120cbecbabc260d31fa9e1b8e0064aec9267670ca0c53599b87e5fa827ef7f81"},
	"v1/m2/k1/p5":   {"8b4cf3d06a0e3c18b2417b2097f731922e26c43e2240dff101990e361a0d3e66", "813cfe75c21deb82ba7aa13ab4cf235a860b5814ac63654ba8ad6f1265607fd2"},
	"v1/m2/k13/p-1": {"7756468d593ea304b0e552f4f9c78a298a10f5f43e7478e01e5f778a0bddf7f8", "f81d579cc5ab45f0e1b856b93122e10bc33903cb632246e89c88ca8e663ba6a1"},
	"v1/m2/k13/p5":  {"7802550329a8ec79b7e731f791004c94332b5da19483a171f437da6461dbfb07", "b5ec26e738647f9f50347559b1b6bda07f0094dc86f5d7a672ec15478da22afd"},
	"v1/m3/k-1/p-1": {"4a63f7250bb6a2f6f9788921a07eceffe5ab7be9ea0b9f2133f8da06f1431773", "a0840a55b77220b8910f66120d1cb2fdbb4fef03ec062e9760c7c70a8d0baed2"},
	"v1/m3/k-1/p5":  {"e416e1834004a6d3653886c18b3898c1df05d20754743a4613ecb4e0bf76e39f", "a0840a55b77220b8910f66120d1cb2fdbb4fef03ec062e9760c7c70a8d0baed2"},
	"v1/m3/k1/p-1":  {"911b3c33ee0fb037012a4c4920fbefbc8658bf5971d7eda19675488ee3e3f6b9", "a33dcf4fba972e841bec5475ca159ad590dbf6615a0863ce80d4bd376e79ca2b"},
	"v1/m3/k1/p5":   {"3e7c416c5a7d573d5d8b5ab4448a479d0cedcf2b47cdaff83ec3289d097c372e", "b1e72141775e5e44a161cd35a00f6ae685d1163412e6c79b592ee8554bd4fc80"},
	"v1/m3/k13/p-1": {"ac5b74c5a394acf9082335301469324905012b86b0671fe40ecb7d60018114e8", "8e9f155153aeec110d2bb3a18721ce720018da3f25b1904ee4bda7f68c22eec1"},
	"v1/m3/k13/p5":  {"7a3c20a2edbbbae5d9f11f10903bf7fe28ece4ae4a8db6887201a1bd75d46ce3", "333cf9b8e175d2c79cdd91794c30a6f13b7af40b0820777a78b2f8f71c4ccd78"},
	"v1/m4/k-1/p-1": {"247205cef17a6a0e2794ac50ce9f47f62d00454d9b01c0ff8a6387053d8855b1", "78240a5ccd138dd8cd6919c9c12386f63b8a3dfa41a27e30e75939fd925ef823"},
	"v1/m4/k-1/p5":  {"00341f1fb7983778ebbf5288c030380e3aaeb16b7c15ec81e53abac3d33c4961", "78240a5ccd138dd8cd6919c9c12386f63b8a3dfa41a27e30e75939fd925ef823"},
	"v1/m4/k1/p-1":  {"0bd29ff12268c05c862ac8b0bdb4e4c503e2cccd2225613b2fbf2e68020ec768", "d04546e36f37359fd6f57f196278de8e096e58d4435122aba56318a105f8d9bf"},
	"v1/m4/k1/p5":   {"90822d3c47b1e40745f473f476740e7f2378dadfa1c9e089fe08f487e26445af", "f2a584b0704679119512defe561a41c1d877485dc459ff3753e9725e33a9af1e"},
	"v1/m4/k13/p-1": {"75a36c15a1260fac1c627da697d19f5974d0e81d14a26f62139e4c80d2657898", "f55f12aab06d8f656473f838a134287799431b615825df25d857e19f669530a4"},
	"v1/m4/k13/p5":  {"7812aa51b537b548d3d03b973b2d4c405b922dd639e27f4fcf09ebde5f1e8d01", "6f058509235804a922b5b13ae11623c32e46e2c897a89479bce99d26f0279355"},
	"v2/m2/k-1/p-1": {"ed632a7c4d9456903deef169bfafecbe3432d79f8a85c78e238d6b303433748d", "7e6a197b830cf49de90744bab677007e48cf7bf12f9efc6f649ceb9594cb0379"},
	"v2/m2/k-1/p5":  {"6210bd18c7b963fba5f70014fc6bebbaa10eb59db8381a4f26ebb6f0138f0e27", "7e6a197b830cf49de90744bab677007e48cf7bf12f9efc6f649ceb9594cb0379"},
	"v2/m2/k1/p-1":  {"29c286ea2b832597d4c105d1bfb24a52669ebb0fc38ba388d688dfc85fe3fe9c", "3272d3aaf379872594117a0741bc8371350ee36b7e970dbe4e1ff6128e18b06d"},
	"v2/m2/k1/p5":   {"a56f39d2aac33d3b862d71e216b10baf11e5bb4b6c62b8f1713c37552f73e194", "7599b8b11ac2948bac9f9aa9f228f0228669c1d677e8a1c93df09ba2ef7bf16b"},
	"v2/m2/k13/p-1": {"18b66e262d3d98af3550f178becad19452e9930a5e2129d738cd8818029b016b", "6686e390c0f1c5d764c5d5d5c881b88da4f7d50ac00d1fab4e605a925aaf8736"},
	"v2/m2/k13/p5":  {"f6972569a1d435e3f125a344b302c710569a48322f650f8837e2335083665441", "01deea0e49a74c61fb286ed150c16d431d0906dde71a7a4cbb1669357c6bd2b6"},
	"v2/m3/k-1/p-1": {"774c33b96d62afb7fae5ce0eeeb40b0848b5e7a063c12e3f11b0ba7d64134042", "644a76de023b8cd0bb9f60d7771eb25c8f74202be2e464dfd4a8ff32b68bb6b8"},
	"v2/m3/k-1/p5":  {"a8663305694b54ece88057d3da39780e6864a24c681ed1f2a52b280c706340f1", "644a76de023b8cd0bb9f60d7771eb25c8f74202be2e464dfd4a8ff32b68bb6b8"},
	"v2/m3/k1/p-1":  {"03d4c015d051aa7d836ff709033e019f9c942dad0026a64cd56061ff22fe42ef", "5f8c224ec1068f6663f343ac47e33413647ab0fdcedebf89264dcfdefa773afb"},
	"v2/m3/k1/p5":   {"a45a8165bd50773ff79b9281312c895db938d407f67627a90bbb095782ca7c70", "fdcc4f3cc1938bcab4defb1143dd94fc581b958879f34ea097b36f7dbff92d5a"},
	"v2/m3/k13/p-1": {"69888a2a14e9e0c7bbc3cca3244f555d893ae7f952a9095618a4d29104ebad42", "c99b04a6de18e8f454e7730cfc17d9f3f91aafb1c5185104c6c873f3468321ad"},
	"v2/m3/k13/p5":  {"e8e1a39136f67740d87ef42d5430632a06ece8928f64c5397fa742fcb0d59e33", "fdbe513f2d585397a4e7762dcc64abea859bbd37cdc2ab590f76acd98202df64"},
	"v2/m4/k-1/p-1": {"8e8aa939e544cb564a9d9439319a9d75e66e4d51d1c0172ba9e3825e70622ae2", "014e7abfe142b13d906525b8a506f934e57f09a6ba6f9b7a8f0e5ca54ef306df"},
	"v2/m4/k-1/p5":  {"6faadefb6808e8b42ab23312c7f43f77b8e4e45cc558b3ec83d659725d3b486f", "014e7abfe142b13d906525b8a506f934e57f09a6ba6f9b7a8f0e5ca54ef306df"},
	"v2/m4/k1/p-1":  {"c7f4f8b0fafe73ed7d03618f17b1ae7b5112bbbbf2eec737fb2ed967593982d2", "f85420561161a755f6ff1c44acceccced05e5064fc7d277b5933a961b5703491"},
	"v2/m4/k1/p5":   {"4ce01b41116aa86249c5f5d70900de80b6b45e479ecf250b86baac691ebcff4d", "986719d8b5322b32a45bd37c00a8448b419885380c496541e86ce55a68172f3e"},
	"v2/m4/k13/p-1": {"c3d7cae27d2b4bd9e0e88b0e8a8dead8a7c28dfe46ab2e33218173678d7c5f80", "6a71d0a261447fc11d0083c49e284a8e1da9a573b569c95ff4d9aa39d99ed6d4"},
	"v2/m4/k13/p5":  {"50101ed0984245c284f280b60d8434e2dfa21d536289a0e8f91617e04b95b07d", "41c36977cc65cf70bedff3726e8e2ea75543e98b830e1618ad6227ca0f76ad91"},
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
			// The hash predates SearchStats.FilteredByQuantized, zero here.
			stats, ok := strings.CutSuffix(fmt.Sprintf("%+v", got.Stats), " FilteredByQuantized:0}")
			if !ok {
				t.Fatalf("%s n=%d: a quantized skip on an unquantized tree: %+v", name, n, got.Stats)
			}
			fmt.Fprintf(statsHash, "%s} %d\n", stats, c.Count()-before)
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
						// The codes' width follows their values (settle); their number is the sizes'.
						shape.FilterBytes = 2 * tree.codes()
						// Recorded before Stats had the cascade's fields, zero in a tree
						// nothing armed, ItemBytes, an int's 8 bytes a leaf item, and
						// OwnedBytes, and while NodeBytes held 24-byte node rows and the
						// v vantage slots a node, an int's 8 bytes each, which the point
						// arena holds now beside the leaf items, under 20-byte rows.
						if vantage := shape.ItemBytes - 8*shape.LeafItems; vantage == 8*v*shape.Nodes {
							shape.NodeBytes += 4*shape.Nodes + vantage
							shape.ItemBytes = 0
						}
						line, ok := strings.CutSuffix(fmt.Sprintf("%+v", shape), " CascadePivots:0 CascadeBytes:0 CascadeStep:0 CascadeSlack:0 ItemBytes:0 OwnedBytes:0}")
						if !ok {
							t.Fatalf("v%d/m%d/k%d/p%d n=%d: a cascade on a fresh tree, or item slots of other than 8 bytes: %+v", v, m, k, p, n, shape)
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

// TestBuildDistancesIsTheBuildsCount: BuildDistances, which sees sizes
// alone, counts what a build measures, at sizes that draw every vantage
// point and at sizes whose nodes sample their first.
func TestBuildDistancesIsTheBuildsCount(t *testing.T) {
	for _, v := range []int{1, 2} {
		for _, m := range []int{2, 3} {
			for _, k := range []int{-1, 9} {
				for _, drawn := range []bool{false, true} {
					for _, n := range []int{0, 1, 2, 3, 17, 200, 255, 256, 700, 2500} {
						opts := Options{Vantages: v, Partitions: m, LeafCapacity: k, PathLength: 4,
							RandomFirstVantage: drawn, RandomSecondVantage: drawn && v == 2, Build: Build{Seed: uint64(n)}}
						_, st, err := NewWithStats(testutil.IDs(n), metric.NewCounter(raggedDist), opts)
						if err != nil {
							t.Fatal(err)
						}
						if got, err := BuildDistances(n, opts); err != nil || got != st.Distances {
							t.Errorf("%+v n=%d: BuildDistances = %d (%v), the build measured %d", opts, n, got, err, st.Distances)
						}
					}
				}
			}
		}
	}
	if _, err := BuildDistances(10, Options{Partitions: 1}); err == nil {
		t.Error("BuildDistances took options New refuses")
	}
}
