// Package linttest is a self-contained, offline stand-in for
// golang.org/x/tools/go/analysis/analysistest (which needs go/packages
// and therefore cannot be vendored compactly). It loads GOPATH-layout
// fixture packages from testdata/src/<importpath>/, type-checks them
// against the standard library via the source importer, runs one
// analyzer through lint.RunUnit (the runner cmd/pressiovet uses), and
// matches its diagnostics against analysistest-style expectations:
//
//	bad()   // want `regexp`
//	bad2()  // want "one" "two"
//
// A `// want` comment expects each quoted regexp to match one
// diagnostic reported on that line; unmatched expectations and
// unexpected diagnostics both fail the test.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/xtools/analysis"
)

// Run loads each fixture package below dir/testdata/src and applies the
// analyzer, matching diagnostics against // want comments. dir is
// usually the analyzer package's own directory (use TestdataDir).
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := newLoader(filepath.Join(dir, "testdata", "src"))
	for _, path := range pkgPaths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Errorf("%s: loading fixture %s: %v", a.Name, path, err)
			continue
		}
		diags, err := lint.RunUnit(pkg.fset, pkg.files, pkg.pkg, pkg.info, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatal(err)
		}
		checkExpectations(t, a, pkg, diags[a])
	}
}

// TestdataDir returns the directory of the calling test file, the
// conventional anchor for testdata/.
func TestdataDir(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		t.Fatal("linttest: cannot locate caller")
	}
	return filepath.Dir(file)
}

// fixturePkg is one type-checked fixture package.
type fixturePkg struct {
	path  string
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*fixturePkg
	busy map[string]bool
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root: root,
		fset: fset,
		// the source importer type-checks std from GOROOT/src, which
		// works offline (no pre-built export data needed)
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*fixturePkg{},
		busy: map[string]bool{},
	}
}

// Import implements types.Importer: fixture packages shadow everything
// else; the rest resolves through the std source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.root, filepath.FromSlash(path)); isDir(dir) {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.pkg, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) load(path string) (*fixturePkg, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	if ld.busy[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	ld.busy[path] = true
	defer delete(ld.busy, path)

	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p := &fixturePkg{path: path, fset: ld.fset, files: files, pkg: tpkg, info: info}
	ld.pkgs[path] = p
	return p, nil
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}

// wantRe matches one `// want "rx"` / `// want `+"`rx`"+“ comment, with
// any number of quoted or backquoted regexps.
var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
	src  string
}

func checkExpectations(t *testing.T, a *analysis.Analyzer, pkg *fixturePkg, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename, line: pos.Line, rx: rx, src: pat,
					})
				}
			}
		}
	}

	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := pkg.fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, pos.Filename, pos.Line, d.Message)
		}
	}
	// report leftovers deterministically
	var left []string
	for i, w := range wants {
		if !matched[i] {
			left = append(left, fmt.Sprintf("%s:%d: %s", w.file, w.line, w.src))
		}
	}
	sort.Strings(left)
	for _, l := range left {
		t.Errorf("%s: expected diagnostic not reported: %s", a.Name, l)
	}
}
