package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/xtools/analysis"
)

const detrandDoc = `forbid bare time.Now()/global math/rand in replay-sensitive code

Seeded fault-injection replay (DESIGN.md §8) only reproduces a failure
schedule if every decision the plan can influence is deterministic.
Wall-clock reads (time.Now, time.Since) and the global math/rand source
smuggle nondeterminism into breaker cooldowns, backoff, and recorded
timings. In the scoped packages (default: internal/faultinject,
internal/queue, internal/bench; _test.go files exempt) this analyzer
forbids calling time.Now/time.Since directly and calling the global
math/rand top-level functions.

Sanctioned patterns it does NOT flag: referencing time.Now as a value
(the injection point "var now = time.Now" or "cfg.Clock = time.Now"),
and seeded sources via rand.New(rand.NewSource(seed)).`

// DetRand is the detrand analyzer.
var DetRand = &analysis.Analyzer{
	Name: "detrand",
	Doc:  detrandDoc,
	Run:  runDetRand,
}

// detrandScope is the default comma-separated package-path-suffix scope,
// overridable with -detrand.scope.
var detrandScope = "internal/faultinject,internal/queue,internal/bench,internal/store,internal/vfs,internal/cluster,internal/scenario"

func init() {
	DetRand.Flags.StringVar(&detrandScope, "scope",
		detrandScope, "comma-separated package path suffixes to police")
}

// globalRandFuncs are the math/rand top-level functions that draw from
// the shared, unseedable-for-replay global source. Constructors
// (New, NewSource, NewZipf) are absent: they are how seeds are injected.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true, "N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "UintN": true, "Uint64N": true,
}

// isGlobalRandFunc reports whether obj is a top-level math/rand (or v2)
// function drawing from the shared global source. Methods on *rand.Rand
// are fine: a *rand.Rand is constructed from an explicit, seedable Source.
func isGlobalRandFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	p := fn.Pkg().Path()
	return (p == "math/rand" || p == "math/rand/v2") && globalRandFuncs[fn.Name()]
}

func runDetRand(pass *analysis.Pass) (any, error) {
	if !pkgPathMatches(pass.Pkg.Path(), detrandScope) {
		return nil, nil
	}
	idx := newIgnoreIndex(pass, "detrand")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || inTestFile(pass.Fset, call.Pos()) {
				return true
			}
			obj := calleeObj(pass.TypesInfo, call)
			switch {
			case isPkgFunc(obj, "time", "Now"):
				idx.reportf(pass, call.Pos(),
					"bare time.Now() in replay-sensitive code: call through an injected clock (e.g. the package-level `var now = time.Now`)")
			case isPkgFunc(obj, "time", "Since"):
				idx.reportf(pass, call.Pos(),
					"time.Since reads the wall clock: use clock().Sub(start) with an injected clock")
			case isGlobalRandFunc(obj):
				idx.reportf(pass, call.Pos(),
					"global math/rand source in replay-sensitive code: inject rand.New(rand.NewSource(seed)) so fault plans replay deterministically")
			}
			return true
		})
	}
	return nil, nil
}
