package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	// cmd/<name>, bare or as ./cmd/<name>, not inside a longer path
	cmdRef = regexp.MustCompile(`(?m)(?:^|[^\w./-]|\./)(cmd/[\w-]+)`)
	// a go run/build/test command up to the end of its code span, line,
	// comment or shell separator
	goRef = regexp.MustCompile("\\bgo (?:run|build|test)\\b([^`|;&#\\n]*)")
	// a back-quoted make invocation, after any VAR=value prefixes
	makeRef = regexp.MustCompile("`(?:\\w+=\\S* )*make ([\\w-]+)")
	// internal/<path>, not inside a longer path; a file, or a package
	// with an .Identifier after it
	internalRef = regexp.MustCompile(`(?:^|[^\w./-])(internal/[\w./-]*\w)`)
	identSuffix = regexp.MustCompile(`\.\w+$`)
	// a Makefile rule's target (not a := assignment)
	makeRule = regexp.MustCompile(`(?m)^([\w.-]+):(?:[^=]|$)`)
)

// staleDocRefs returns, sorted, each reference in doc to something the
// tree at root lacks: a cmd/<name> directory, the package path after go
// run/build/test, a back-quoted `make <target>` not among targets, and,
// when internalRefs is set, an internal/<path>.
func staleDocRefs(root, doc string, targets map[string]bool, internalRefs bool) []string {
	stale := map[string]bool{}
	exists := func(p string) bool {
		_, err := os.Stat(filepath.Join(root, p))
		return err == nil
	}
	for _, m := range cmdRef.FindAllStringSubmatch(doc, -1) {
		if !exists(m[1]) {
			stale[m[1]] = true
		}
	}
	for _, m := range goRef.FindAllStringSubmatch(doc, -1) {
		for _, tok := range strings.Fields(m[1]) {
			tok = strings.Trim(tok, `'"`)
			if tok != "." && !strings.HasPrefix(tok, "./") {
				continue
			}
			if !exists(strings.TrimSuffix(tok, "...")) {
				stale[tok] = true
			}
			break // the package; later words are the program's arguments
		}
	}
	for _, m := range internalRef.FindAllStringSubmatch(doc, -1) {
		if internalRefs && !exists(m[1]) && !exists(identSuffix.ReplaceAllString(m[1], "")) {
			stale[m[1]] = true
		}
	}
	for _, m := range makeRef.FindAllStringSubmatch(doc, -1) {
		if !targets[m[1]] {
			stale["make "+m[1]] = true
		}
	}
	out := make([]string, 0, len(stale))
	for ref := range stale {
		out = append(out, ref)
	}
	sort.Strings(out)
	return out
}

// TestDocsNameWhatExists is `make docs-check`: README.md, DESIGN.md and
// EXPERIMENTS.md may name only commands, packages and make targets the
// tree has. The ledger, EXPERIMENTS.md, may name deleted internal/
// packages; README.md and DESIGN.md may not.
func TestDocsNameWhatExists(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	// negative control: in a tree holding cmd/predict-bench and
	// internal/queue, a doc naming the deleted cmd/schemes is caught by
	// all three rules, so is the deleted internal/cluster/health, and the
	// names that exist are not
	root := t.TempDir()
	for _, dir := range []string{"cmd/predict-bench", "internal/queue"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	fixture := "Table 1: `go run ./cmd/schemes -table1`, `make schemes`, or cmd/schemes.\n" +
		"Now `go run ./cmd/predict-bench -table1 -corpus ./out` and `make check`:\n" +
		"```sh\ngo test -bench=. ./internal/queue/...   # cmd/predict-bench\n```\n" +
		"The router's breaker was internal/cluster/health.\n" +
		"The bench runs on `internal/queue.Queue`.\n"
	want := []string{"./cmd/schemes", "cmd/schemes", "internal/cluster/health", "make schemes"}
	if got := staleDocRefs(root, fixture, targets, true); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("fixture: stale references %q, want %q", got, want)
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range staleDocRefs(".", string(raw), targets, doc != "EXPERIMENTS.md") {
			t.Errorf("%s names %s, which does not exist", doc, ref)
		}
	}
}
