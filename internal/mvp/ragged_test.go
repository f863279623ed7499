package mvp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
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
	"v1/m2/k-1/p-1": {"01a92bace3feb9dda0d023bf3381ae2140b28b4d85dafaa8c607e77480c51f91", "dfd27c6b4d97a57e8ef34bd8fb702d0073304754b0a185258f7c3907b128f7a6"},
	"v1/m2/k-1/p5":  {"6d087db7dd449995f490d68848f0299d697a2dfff6fdb43a7c2559dd6c208f74", "dfd27c6b4d97a57e8ef34bd8fb702d0073304754b0a185258f7c3907b128f7a6"},
	"v1/m2/k1/p-1":  {"ea48430d708649b3bd840e8a6ddde470cb261f8f7e89844b28a82474f2142413", "96f29f56c701ae0f25c78492aaf4d2c37cbf20f18be1add4e6ce8b57a2fe2cb2"},
	"v1/m2/k1/p5":   {"51273df63366022d1a541fae97bd6d3ea799d49a9db1a98290aacf0765ced0be", "f753ff47aa6138a611f0af5fad9eb814ee6a934813ef6ffc68708b53a4d2a41a"},
	"v1/m2/k13/p-1": {"5804a21b99c5522eb0dd9feaee1aa64c216bdeaeb65198c5cc0d26f82728cd17", "3c288fed9808602a4a37e96a4623c5b5e8052aae9fdb61212a44091cbf3489f0"},
	"v1/m2/k13/p5":  {"58cd38b2c91000676d9a01f968b410afc8094d325be7d62e20ea995a3af01553", "8b1f5d22248d0d69d4689b3bee76c127ff825416a786f1ed7a0d40025a9cdad1"},
	"v1/m3/k-1/p-1": {"aae8b5b6760155005c1fe9c4b6f824d1c45029a8105a77ba226551a0f7c3a32a", "abe5e4ee8ab63d90324e719120d5c3ccb790ec609d295947d2d14db536b346a9"},
	"v1/m3/k-1/p5":  {"07ff9f61875522e21a1aa4e3dd58ef6912901319e9da67d7c4c0b361d2dae905", "abe5e4ee8ab63d90324e719120d5c3ccb790ec609d295947d2d14db536b346a9"},
	"v1/m3/k1/p-1":  {"12ab779fdb8e7ac3e93252a338861f5dc7e7dfbf4d7f141946d840599f9ba661", "d5745e4efbba14a7f11efd73fe86ea2e0638b118859ac2fc9c57a2cd699f7462"},
	"v1/m3/k1/p5":   {"083ac3bd2acd8703bdaf0514483b55bdfabdf0e46ae9494f0f6311c1a140adf2", "3f34b8e45bba9a940d7bedc9ddc90a172ed5e8f3eac8f72a23a501691afd1224"},
	"v1/m3/k13/p-1": {"7f303502c8d6ac3957c395970070ba116c45ea148744cb099f44c83924aa7d2d", "13d930e61102aaa69e321d82e6216621ae5872b021f435b24d48b8be6c9f8f67"},
	"v1/m3/k13/p5":  {"aab16842e0397c2613180ef1e8b69c74d549f5d27d7be1bc496d493af1641225", "ac06a44f11c1250217a4efdf39f7967565df9418490307edc2667d43f7b6a36e"},
	"v1/m4/k-1/p-1": {"cf876542f77ddc5bfbba773847c93348c4fff918959715f4a5df00a2c0bbda44", "5a20e7821702265a6026b4307d3c7f26f34e2f57caa1f33da3e74835a522f50c"},
	"v1/m4/k-1/p5":  {"72db30a3e2c5b90469c68b5be689ce8105183c8b59971bdac8152adc16ea0688", "5a20e7821702265a6026b4307d3c7f26f34e2f57caa1f33da3e74835a522f50c"},
	"v1/m4/k1/p-1":  {"066dc42b7cb70a600ebe226bab337e2abe52766c78fd49586efde729bc1ba3ee", "0675b388002f7e61576e0611e2029d7f353f3abba9754c5aa5c31dfa0bc9a459"},
	"v1/m4/k1/p5":   {"0057967885c235e8d9972d5e3b9461ec229b2b8872ab82f982e61a04f3628cbf", "ef999de9cfd08d1546e1669113a6cf6124a47b34a69f9e62264c148053f5db20"},
	"v1/m4/k13/p-1": {"af03c46e6016bad8ae37760921e5101bcf77e28b8cfeaa17db40aadf035ef95e", "1664d4feee3d604393a8058d7130b6bb0264aac5c97efab361bd102e16b23fd8"},
	"v1/m4/k13/p5":  {"a03d463638074b677e3558a95969746e5f0f36904de48a8fd32eb0532a23161d", "16aab388c67c5e423b278aa7ce92da3d84c7a002e5096b100d57ee8f859a9345"},
	"v2/m2/k-1/p-1": {"3e4cc60c4b6d5591353d1d7cedb41b8543edca5258aff7f62c24f106c70f6978", "f694fe6047da8351a3eb358e088636df42ecc787d69fbbe724ae9a6e2d282e2f"},
	"v2/m2/k-1/p5":  {"7ad1b052e55190b16c531980d84b643fbeb7d20b90439ac6b970b6415da23e19", "f694fe6047da8351a3eb358e088636df42ecc787d69fbbe724ae9a6e2d282e2f"},
	"v2/m2/k1/p-1":  {"90b92da6d1e9ff21aa09a8437d9862a682f607758ab41c26926a47eb9493f49b", "d656e5f669bfb9b5491e9e5a405f23cf0485d875c511bce08fe5ffc99311651e"},
	"v2/m2/k1/p5":   {"5b532b917f9209f9dea9c2818b92667ffc0388aaf3ee8f05ed9a7cf141c3d370", "b2d0bc414308cf6ee5cf3429f7f93b39baa26b197b50ed33607ea587a598e91a"},
	"v2/m2/k13/p-1": {"b2d82cc268a5ccd392c2ac48e17b088d51de890aade9019d08665fdb620bee3d", "7adc9b0252b05628b3942c32128bee12969d328d228271a23fe4d06368eab108"},
	"v2/m2/k13/p5":  {"e5bc11b64ab1d96e2081407c48ac73d1fd18a7ab609f6712e9e456b3c008b9ac", "c79acdd9b579c27588e898d0820c4a8af6f57be3d22c89f73339fcbacda6c51c"},
	"v2/m3/k-1/p-1": {"05d8e03feb2e849080d0b7afc19d975680aba8e298ef5005aa5bb5ee81a88cf4", "eb6e753147457eb51b2571e30ffb6a81e5f155970ca67d2a616b75061409a1b5"},
	"v2/m3/k-1/p5":  {"b332ff92f9e703c3fbf6b858d188a6c0552350385f9104ca8bcf8e67de2a116d", "eb6e753147457eb51b2571e30ffb6a81e5f155970ca67d2a616b75061409a1b5"},
	"v2/m3/k1/p-1":  {"7ac995a07b2c9ca57c185e7f730e826517fe00738bf74f3a7f78852e3ff491a6", "dec21b0b0a06f7d36d28c31fa4b81c6993c4ec7277f6101da645cb02afd12e37"},
	"v2/m3/k1/p5":   {"b015a895dfbf3845a8a8336a46e856e77c7955145dd39190bc58f25156439516", "d29112771207e2dd082e53656bca617562329db0e0d213a47812d5c107c7d196"},
	"v2/m3/k13/p-1": {"3cc32b20d288e0bdb6fbfb736803f758da605626a8507830d6ce4208c548c522", "4559a01e804287c03f5b431e6e555dc23dd99f7a06192c0289fddebc4a6521ee"},
	"v2/m3/k13/p5":  {"88ed361cd88d2b7c4d877ab7ed6b0b984acb041e3fe8029153e838415f82b9ef", "d026fcb678b819953b003b744a633852430e721c281376b8c47f0b5c8ac5b2b8"},
	"v2/m4/k-1/p-1": {"83bb2da299e8349ee1aa66cf6c816814369d6d9af6f57fcd62495b34a9516601", "e39fe82fd12fe30da5a726e43017690700a5923bc2cc31339a486e5154696dc1"},
	"v2/m4/k-1/p5":  {"81313893c888613dc0791f84418c603b90edca36c7350f9c2e2c4c9f24477a85", "e39fe82fd12fe30da5a726e43017690700a5923bc2cc31339a486e5154696dc1"},
	"v2/m4/k1/p-1":  {"0bb512fa5519ecb78d8322037ec789a8363231067425967e265ec99bbd5225f5", "87f3bf5c6d35c3857ab61cd3144a8cf15aaa36f9c038c8b3938e3e7b1dd079f8"},
	"v2/m4/k1/p5":   {"a86593df39eb8ca3ee0503e7c8200f39c06c5e75ddc52a009d70aa1facde7e41", "a73a741b9c4828088bd92d31fceb17fa0d76aca71f4c3773264b4f2d5454a18c"},
	"v2/m4/k13/p-1": {"3e0142fccf37bdb354d21e99951867f7b94a669d42723ac8d7ac5e77b3e36f85", "b29a89a2ae2417f151a7255978888d370e37b6e0acae9dc4bdd0e49b84dc31b2"},
	"v2/m4/k13/p5":  {"33744911e5173999273c3488ee265f992fc1908a20edd091a74f7ad4dc0ab688", "758b64c25635165be04663942ec8c49a13f7949e4b45cb8c7bdfc81ce87f6ece"},
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
						fmt.Fprintf(h, "%+v %d %d %d\n", shape, st.Distances, st.Nodes, st.MaxDepth)
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
