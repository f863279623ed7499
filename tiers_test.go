package mvptree_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestComparisonStructuresStayBuildAndSearch keeps the line between the
// two tiers (DESIGN.md "Two tiers") where it was drawn. The comparison
// structures of the paper's figures are construction plus one Search:
// none of them may grow a bound cascade, a stream format or a quantized
// companion again, which they could not do without importing the package
// that provides it. The pivot table selects its pivots with
// cascade.GreedySelect — the one implementation, which the tree's cascade
// calls too — so for it only persistence and quantization are out of
// bounds. Non-test files only: a test may use
// what it likes.
func TestComparisonStructuresStayBuildAndSearch(t *testing.T) {
	served := []string{"cascade", "wire", "quant", "codec"}
	for pkg, banned := range map[string][]string{
		"gmvp": served, "gnat": served, "balltree": served, "bktree": served,
		"laesa": served[1:],
	} {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no files (%v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if name, ok := strings.CutPrefix(path, "mvptree/internal/"); ok && slices.Contains(banned, name) {
					t.Errorf("%s imports internal/%s: that belongs to the served core (internal/mvp, shard, dynamic)", file, name)
				}
			}
		}
	}
}
