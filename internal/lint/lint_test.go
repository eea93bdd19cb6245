package lint_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
	"repro/internal/xtools/analysis"
)

// TestAnalyzerSet pins the suite: adding or removing an analyzer must be
// a deliberate, reviewed change (and documented in DESIGN.md §11). It
// also holds the suite to declaring no facts.
func TestAnalyzerSet(t *testing.T) {
	want := []string{"ctxflow", "detrand", "invalidatedecl", "opthashcomplete", "poolescape"}
	var got []string
	for _, a := range lint.Analyzers() {
		got = append(got, a.Name)
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("analyzer set = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("analyzer set = %v, want %v", got, want)
		}
	}

	// No analyzer, nor one it requires, may declare facts: pressiovet
	// carries none. Validate is the check cmd/pressiovet refuses to start
	// on; the fake pair below is its negative control.
	if err := lint.Validate(lint.Analyzers()); err != nil {
		t.Error(err)
	}
	withFacts := &analysis.Analyzer{Name: "withfacts", Doc: "d", Run: lint.DetRand.Run, FactTypes: []analysis.Fact{new(fact)}}
	user := &analysis.Analyzer{Name: "user", Doc: "d", Run: lint.DetRand.Run, Requires: []*analysis.Analyzer{withFacts}}
	if err := lint.Validate([]*analysis.Analyzer{user}); err == nil || !strings.Contains(err.Error(), "withfacts declares FactTypes") {
		t.Errorf("Validate of an analyzer requiring one with facts = %v", err)
	}
}

type fact struct{}

func (*fact) AFact() {}

func TestOptHashComplete(t *testing.T) {
	linttest.Run(t, linttest.TestdataDir(t), lint.OptHashComplete, "opthash/a")
}

func TestInvalidateDecl(t *testing.T) {
	linttest.Run(t, linttest.TestdataDir(t), lint.InvalidateDecl, "invalid/a")
}

func TestPoolEscape(t *testing.T) {
	linttest.Run(t, linttest.TestdataDir(t), lint.PoolEscape, "pool/a")
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, linttest.TestdataDir(t), lint.CtxFlow,
		"scope/internal/queue", "scope/internal/other")
}

func TestDetRand(t *testing.T) {
	linttest.Run(t, linttest.TestdataDir(t), lint.DetRand,
		"scope/internal/faultinject", "scope/internal/timing")
}

// TestScopesNameExistingPackages: every entry of an analyzer's default
// -scope is a package directory of this module, so renaming or deleting
// a package cannot silently drop it from the policed set.
func TestScopesNameExistingPackages(t *testing.T) {
	scoped := 0
	for _, a := range lint.Analyzers() {
		f := a.Flags.Lookup("scope")
		if f == nil {
			continue
		}
		scoped++
		for _, dir := range strings.Split(f.DefValue, ",") {
			if fi, err := os.Stat(filepath.Join("..", "..", dir)); err != nil || !fi.IsDir() {
				t.Errorf("%s scope names %q, which is no directory under the module root", a.Name, dir)
			}
		}
	}
	if scoped != 2 {
		t.Errorf("%d analyzers have a -scope flag, want 2 (ctxflow, detrand)", scoped)
	}
}
