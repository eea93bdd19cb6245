package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/linttest"
)

// TestBrokenTreeEndToEnd drives the real `go vet -vettool` pipeline over
// testdata/brokenmod, a deliberately broken module carrying exactly one
// violation per analyzer, and compares what go vet prints, in plain and
// in -json mode, against the goldens beside it. This is the end-to-end
// proof that cmd/pressiovet, the go vet protocol, and the analyzers
// compose; the per-analyzer semantics are covered by the linttest
// fixtures.
//
// The goldens hold go vet's combined output with the absolute path of
// testdata/brokenmod written as $BROKENMOD (the -json positions are
// absolute). To regenerate one after a deliberate change, run in
// testdata/brokenmod
//
//	go vet [-json] -vettool=<built pressiovet> ./... 2>&1
//
// and replace that directory's absolute path with $BROKENMOD.
func TestBrokenTreeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	pkgDir := linttest.TestdataDir(t) // .../internal/lint
	repoRoot, err := filepath.Abs(filepath.Join(pkgDir, "..", ".."))
	if err != nil {
		t.Fatal(err)
	}

	vettool := filepath.Join(t.TempDir(), "pressiovet")
	build := exec.Command("go", "build", "-o", vettool, "./cmd/pressiovet")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pressiovet: %v\n%s", err, out)
	}

	brokenDir := filepath.Join(pkgDir, "testdata", "brokenmod")
	for _, tc := range []struct {
		golden string
		args   []string
		exit   int // make lint gates on plain mode's; -json always exits 0
	}{
		{"brokenmod.vet.golden", []string{"vet", "-vettool=" + vettool, "./..."}, 1},
		{"brokenmod.vet-json.golden", []string{"vet", "-json", "-vettool=" + vettool, "./..."}, 0},
	} {
		vet := exec.Command("go", tc.args...)
		vet.Dir = brokenDir
		out, err := vet.CombinedOutput()
		if code := vet.ProcessState.ExitCode(); code != tc.exit {
			t.Errorf("go %s exited %d (%v), want %d\n%s", strings.Join(tc.args, " "), code, err, tc.exit, out)
		}
		want, err := os.ReadFile(filepath.Join(pkgDir, "testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		got := strings.ReplaceAll(string(out), brokenDir, "$BROKENMOD")
		compareBlocks(t, tc.golden, vetBlocks(t, got), vetBlocks(t, string(want)))
	}
}

// vetBlocks splits go vet's output into one block per package: the text
// after a "# importpath" header, up to the next header. go vet prints the
// packages in the order it schedules them, which differs from run to
// run, so blocks are compared by package, not in sequence.
func vetBlocks(t *testing.T, out string) map[string]string {
	t.Helper()
	blocks := map[string]string{}
	pkg := ""
	for _, line := range strings.SplitAfter(out, "\n") {
		if name, ok := strings.CutPrefix(line, "# "); ok {
			pkg = strings.TrimSpace(name)
			if _, dup := blocks[pkg]; dup {
				t.Errorf("package %s printed twice", pkg)
			}
			blocks[pkg] = ""
			continue
		}
		if pkg == "" && line != "" {
			t.Errorf("output before the first package header: %q", line)
		}
		blocks[pkg] += line
	}
	return blocks
}

func compareBlocks(t *testing.T, golden string, got, want map[string]string) {
	t.Helper()
	for pkg, w := range want {
		g, ok := got[pkg]
		switch {
		case !ok:
			t.Errorf("%s: package %s not printed; want\n%s", golden, pkg, w)
		case g != w:
			t.Errorf("%s: package %s printed\n%s\nwant\n%s", golden, pkg, g, w)
		}
	}
	for pkg, g := range got {
		if _, ok := want[pkg]; !ok {
			t.Errorf("%s: unexpected package %s:\n%s", golden, pkg, g)
		}
	}
}
