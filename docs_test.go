// Documentation enforcement: the DESIGN.md §4 experiment index must match
// the scenario registry, relative links in the top-level docs must
// resolve, the packages TestGodocCoverage names must document every
// exported symbol, every internal package must be imported by non-test
// code, and only internal/simrand's table derivation may seed math/rand. CI
// runs these in its docs job; they are ordinary tests so `go test ./...`
// catches drift locally too.
package dnstime_test

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dnstime"
)

// Markers delimiting the generated experiment index inside DESIGN.md.
const (
	indexBegin = "<!-- scenario-index:begin"
	indexEnd   = "<!-- scenario-index:end"
)

// TestDesignExperimentIndexInSync: the §4 table embedded in DESIGN.md is
// exactly what the registry generates, so the documented index cannot
// drift from the code. Regenerate with:
//
//	go run ./cmd/experiments scenarios -markdown
func TestDesignExperimentIndexInSync(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	begin := strings.Index(text, indexBegin)
	end := strings.Index(text, indexEnd)
	if begin < 0 || end < 0 || end < begin {
		t.Fatalf("DESIGN.md is missing the %s / %s markers", indexBegin, indexEnd)
	}
	embedded := text[begin:end]
	// Drop the begin-marker line itself.
	if i := strings.Index(embedded, "\n"); i >= 0 {
		embedded = embedded[i+1:]
	}
	want := dnstime.ScenarioIndexMarkdown()
	if strings.TrimSpace(embedded) != strings.TrimSpace(want) {
		t.Errorf("DESIGN.md §4 experiment index is out of sync with the registry.\n"+
			"Regenerate with: go run ./cmd/experiments scenarios -markdown\n\n"+
			"embedded:\n%s\nregistry:\n%s", embedded, want)
	}
}

// TestDocsRelativeLinks: every relative markdown link in the top-level
// docs points at a file that exists.
func TestDocsRelativeLinks(t *testing.T) {
	linkRe := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s links to %q which does not resolve: %v", name, m[1], err)
			}
		}
	}
}

// TestGodocCoverage: internal/scenario, internal/campaign,
// internal/stats, internal/netem (including the topology layer),
// internal/simnet, internal/simrand, internal/ntpclient, internal/core,
// internal/serve, internal/obs and internal/search must carry a package
// comment and a doc comment on every
// exported symbol (types, funcs, methods, and const/var groups).
func TestGodocCoverage(t *testing.T) {
	for _, dir := range []string{
		"internal/scenario", "internal/campaign", "internal/stats",
		"internal/netem", "internal/simnet", "internal/simrand", "internal/ntpclient",
		"internal/core", "internal/serve", "internal/obs", "internal/search",
	} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			p := doc.New(pkg, dir, 0)
			if strings.TrimSpace(p.Doc) == "" {
				t.Errorf("%s: missing package comment", dir)
			}
			check := func(kind, name, docText string) {
				if !ast.IsExported(strings.TrimPrefix(name, "*")) {
					return
				}
				if strings.TrimSpace(docText) == "" {
					t.Errorf("%s: exported %s %s has no doc comment", dir, kind, name)
				}
			}
			values := func(kind string, vs []*doc.Value) {
				for _, v := range vs {
					for _, name := range v.Names {
						check(kind, name, v.Doc)
					}
				}
			}
			values("const", p.Consts)
			values("var", p.Vars)
			for _, f := range p.Funcs {
				check("func", f.Name, f.Doc)
			}
			for _, typ := range p.Types {
				check("type", typ.Name, typ.Doc)
				values("const", typ.Consts)
				values("var", typ.Vars)
				for _, f := range typ.Funcs {
					check("func", f.Name, f.Doc)
				}
				for _, m := range typ.Methods {
					check("method", typ.Name+"."+m.Name, m.Doc)
				}
			}
		}
	}
}

// nonTestGoFiles returns the paths of this module's non-test Go files.
// Hidden directories, testdata and nested modules such as bench/ do not
// count.
func nonTestGoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." {
				if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if filepath.Ext(path) == ".go" && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestEveryInternalPackageIsImported: every package under internal/ is
// imported by a non-test file of another package of this module (a
// package cannot import itself), so code that only its own tests reach
// cannot linger.
func TestEveryInternalPackageIsImported(t *testing.T) {
	fset := token.NewFileSet()
	var packages []string
	imported := map[string]bool{}
	for _, path := range nonTestGoFiles(t) {
		pkg := "dnstime/" + filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(pkg, "dnstime/internal/") && !slices.Contains(packages, pkg) {
			packages = append(packages, pkg)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			imported[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(packages) == 0 {
		t.Fatal("found no packages under internal/")
	}
	for _, pkg := range packages {
		if !imported[pkg] {
			t.Errorf("%s is imported by no non-test file of another package", pkg)
		}
	}
}

// TestOneSeedingPath: deriveCooked, in internal/simrand, is the only
// non-test code that calls math/rand's NewSource, once per process to
// derive math/rand's seeding table. Every random stream is a
// simrand.Source, which produces its first outputs in closed form, so a
// generator that seeds math/rand itself pays the ≈11 µs seeding the
// Source saves.
func TestOneSeedingPath(t *testing.T) {
	fset := token.NewFileSet()
	for _, path := range nonTestGoFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		rand := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"math/rand"` {
				rand = "rand"
				if imp.Name != nil {
					rand = imp.Name.Name
				}
			}
		}
		if rand == "" {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "deriveCooked" &&
				filepath.ToSlash(filepath.Dir(path)) == "internal/simrand" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewSource" {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == rand {
							t.Errorf("%s: rand.NewSource outside simrand's table derivation; draw from rand.New(simrand.New(seed))", fset.Position(call.Pos()))
						}
					}
				}
				return true
			})
		}
	}
}
