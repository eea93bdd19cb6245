package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// tool is pressiovet built from this package, shared by every test.
var tool string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pressiovet")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tool = filepath.Join(dir, "pressiovet")
	code := 1
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building pressiovet: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestVersionIsTheBinarysHash(t *testing.T) {
	out, err := exec.Command(tool, "-V=full").Output()
	if err != nil {
		t.Fatal(err)
	}
	exe, err := filepath.EvalSymlinks(tool)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s version devel comments-go-here buildID=%x\n", exe, sha256.Sum256(bin))
	if string(out) != want {
		t.Errorf("-V=full printed %q, want %q", out, want)
	}
}

func TestFlagsAreTheFive(t *testing.T) {
	out, err := exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatal(err)
	}
	var flags []struct {
		Name string
		Bool bool
	}
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags printed %s: %v", out, err)
	}
	var names []string
	for _, f := range flags {
		names = append(names, f.Name)
		if f.Bool != (f.Name == "flags" || f.Name == "json") {
			t.Errorf("flag %s: Bool = %v", f.Name, f.Bool)
		}
	}
	slices.Sort(names)
	if want := []string{"V", "ctxflow.scope", "detrand.scope", "flags", "json"}; !slices.Equal(names, want) {
		t.Errorf("-flags names %v, want %v", names, want)
	}
}

// unit writes a one-file compilation unit and its .cfg into a fresh
// directory and returns the .cfg's path and the facts file it names.
func unit(t *testing.T, src string, edit func(cfg map[string]any)) (cfgFile, vetx string) {
	t.Helper()
	dir := t.TempDir()
	goFile := filepath.Join(dir, "p.go")
	vetx = filepath.Join(dir, "vet.out")
	if err := os.WriteFile(goFile, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg := map[string]any{
		"ID": "p", "Compiler": "gc", "ImportPath": "p",
		"GoFiles": []string{goFile}, "VetxOutput": vetx,
	}
	edit(cfg)
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgFile = filepath.Join(dir, "unit.cfg")
	if err := os.WriteFile(cfgFile, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return cfgFile, vetx
}

// A unit asked about only for facts is answered without being parsed: a
// file that is not Go at all still exits 0, with an empty facts file.
func TestVetxOnlyParsesNothing(t *testing.T) {
	cfgFile, vetx := unit(t, "this is not Go", func(cfg map[string]any) { cfg["VetxOnly"] = true })
	if err := os.WriteFile(vetx, []byte("stale facts"), 0o666); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(tool, cfgFile).CombinedOutput(); err != nil {
		t.Fatalf("VetxOnly unit: %v\n%s", err, out)
	}
	if facts, err := os.ReadFile(vetx); err != nil || len(facts) != 0 {
		t.Errorf("facts file = %q, %v; want it empty", facts, err)
	}
}

func TestTypeErrorHonoursSucceedOnTypecheckFailure(t *testing.T) {
	const src = "package p\n\nvar x int = \"s\"\n"
	for _, succeed := range []bool{true, false} {
		cfgFile, _ := unit(t, src, func(cfg map[string]any) { cfg["SucceedOnTypecheckFailure"] = succeed })
		out, err := exec.Command(tool, cfgFile).CombinedOutput()
		switch {
		case succeed && err != nil:
			t.Errorf("SucceedOnTypecheckFailure: %v\n%s", err, out)
		case !succeed && err == nil:
			t.Errorf("a type error exited 0\n%s", out)
		case !succeed && !strings.Contains(string(out), `cannot use "s"`):
			t.Errorf("a type error printed %q, want it named", out)
		}
	}
}
