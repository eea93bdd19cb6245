// Command pressiovet runs the repo's custom analysis suite (DESIGN.md
// §11) as a `go vet` tool:
//
//	go build -o bin/pressiovet ./cmd/pressiovet
//	go vet -vettool=$(pwd)/bin/pressiovet ./...
//
// or simply `make lint`. The go command loads the packages, compiles
// their export data and caches what it can; it hands pressiovet one
// compilation unit at a time, described by a JSON .cfg file. pressiovet
// type-checks the unit from that export data, runs the analyzers of
// internal/lint over it through lint.RunUnit and prints their findings:
// in vet's plain format on stderr, exiting 1 if there are any, or with
// -json as a JSON tree on stdout, exiting 0.
//
// It carries no analysis facts: no analyzer declares any, and
// lint.Validate refuses one that does. So a unit the go command asks
// about only for facts (a dependency, VetxOnly) is answered with an
// empty facts file without being parsed.
//
// Besides the .cfg argument it answers -V=full with the tool ID vet's
// cache is keyed by (a hash of this executable) and -flags with its
// flags as JSON: -V, -flags, -json and each analyzer's own flags as
// -<analyzer>.<flag>.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/xtools/analysis"
)

// config is the part of the go command's description of a compilation
// unit that pressiovet reads.
type config struct {
	ID                        string // e.g. "fmt [fmt.test]"
	Compiler                  string // gc or gccgo
	ImportPath                string
	GoVersion                 string // minimum Go version, e.g. "go1.21.0"
	GoFiles                   []string
	ImportMap                 map[string]string // import path → package path
	PackageFile               map[string]string // package path → export data file
	Standard                  map[string]bool   // package path → in the standard library
	VetxOnly                  bool              // asked for facts only, not diagnostics
	VetxOutput                string            // where the unit's facts file goes
	SucceedOnTypecheckFailure bool              // the compiler reports type errors
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pressiovet: ")
	analyzers := lint.Analyzers()
	if err := lint.Validate(analyzers); err != nil {
		log.Fatal(err)
	}

	version := flag.String("V", "", "print the tool ID and exit (-V=full)")
	printFlags := flag.Bool("flags", false, "print the accepted flags as JSON and exit")
	asJSON := flag.Bool("json", false, "print findings as JSON and exit 0")
	for _, a := range analyzers {
		a.Flags.VisitAll(func(f *flag.Flag) {
			flag.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	flag.Parse()

	switch {
	case *version != "":
		printVersion(*version)
	case *printFlags:
		printFlagsJSON()
	case flag.NArg() != 1 || !strings.HasSuffix(flag.Arg(0), ".cfg"):
		log.Fatal(`run through "go vet -vettool", which passes one unit.cfg file`)
	default:
		os.Exit(vet(flag.Arg(0), analyzers, *asJSON))
	}
}

// printVersion prints the line the go command's tool-ID parser wants from
// a development build, "devel … buildID=<hash>". Hashing the executable
// makes a rebuilt pressiovet invalidate vet's cache.
func printVersion(v string) {
	if v != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", v)
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%x\n", exe, sha256.Sum256(data))
}

// printFlagsJSON tells go vet which flags it may pass through.
func printFlagsJSON() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// vet analyzes the unit cfgFile describes and returns the exit code.
func vet(cfgFile string, analyzers []*analysis.Analyzer, asJSON bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}
	// Every unit leaves a facts file for its importers; with no facts it
	// is empty, and a unit asked about only for facts is done.
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		log.Fatal(err)
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	files, pkg, info, err := typeCheck(fset, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Fatal(err)
	}
	diags, err := lint.RunUnit(fset, files, pkg, info, analyzers)
	if err != nil {
		log.Fatal(err)
	}

	if asJSON {
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		found := map[string][]jsonDiag{}
		for _, a := range analyzers {
			for _, d := range diags[a] {
				found[a.Name] = append(found[a.Name], jsonDiag{fset.Position(d.Pos).String(), d.Message})
			}
		}
		tree := map[string]map[string][]jsonDiag{} // unit ID → analyzer → findings
		if len(found) > 0 {
			tree[cfg.ID] = found
		}
		data, err := json.MarshalIndent(tree, "", "\t")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", data)
		return 0
	}
	exit := 0
	for _, a := range analyzers {
		for _, d := range diags[a] {
			fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
			exit = 1
		}
	}
	return exit
}

// typeCheck parses the unit's files and type-checks them against the
// export data of its imports.
func typeCheck(fset *token.FileSet, cfg *config) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	compiled := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			if cfg.Compiler == "gccgo" && cfg.Standard[path] {
				return nil, nil // gccgo finds the standard library itself
			}
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath] // resolves vendoring
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return compiled.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := &types.Info{
		Types:        map[ast.Expr]types.TypeAndValue{},
		Defs:         map[*ast.Ident]types.Object{},
		Uses:         map[*ast.Ident]types.Object{},
		Implicits:    map[ast.Node]types.Object{},
		Instances:    map[*ast.Ident]types.Instance{},
		Scopes:       map[ast.Node]*types.Scope{},
		Selections:   map[*ast.SelectorExpr]*types.Selection{},
		FileVersions: map[*ast.File]string{},
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return files, pkg, info, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
