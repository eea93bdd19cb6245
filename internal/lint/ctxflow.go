package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/xtools/analysis"
)

const ctxflowDoc = `forbid context.Background()/TODO() in queue/serve/bench library code

The resilience layer (DESIGN.md §8) and the serving subsystem (§9) rely
on cancellation flowing from the caller: deadlines, SIGINT drain, and
per-request budgets all propagate through a ctx argument. A
context.Background() buried in library code silently detaches that
subtree from cancellation. This analyzer forbids Background/TODO inside
the scoped packages (default: internal/queue, internal/serve,
internal/bench; _test.go files exempt) and requires any context.Context
parameter to be the first parameter.

Intentional detachment points (async jobs that must outlive a request)
carry //lint:ignore pressiovet/ctxflow with the reason.`

// CtxFlow is the ctxflow analyzer.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  ctxflowDoc,
	Run:  runCtxFlow,
}

// ctxflowScope is the default comma-separated package-path-suffix scope,
// overridable with -ctxflow.scope.
var ctxflowScope = "internal/queue,internal/serve,internal/bench,internal/store,internal/cluster,internal/scenario"

func init() {
	CtxFlow.Flags.StringVar(&ctxflowScope, "scope",
		ctxflowScope, "comma-separated package path suffixes to police")
}

func runCtxFlow(pass *analysis.Pass) (any, error) {
	if !pkgPathMatches(pass.Pkg.Path(), ctxflowScope) {
		return nil, nil
	}
	idx := newIgnoreIndex(pass, "ctxflow")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if inTestFile(pass.Fset, n.Pos()) {
					return true
				}
				obj := calleeObj(pass.TypesInfo, n)
				for _, name := range [...]string{"Background", "TODO"} {
					if isPkgFunc(obj, "context", name) {
						idx.reportf(pass, n.Pos(),
							"context.%s() in library code: accept a ctx parameter and pass it through (cancellation must flow from the caller)", name)
					}
				}
			case *ast.FuncDecl:
				if inTestFile(pass.Fset, n.Pos()) {
					return false
				}
				checkCtxFirst(pass, idx, n.Type)
			}
			return true
		})
	}
	return nil, nil
}

// checkCtxFirst reports a context.Context parameter that is not the
// first parameter of the function.
func checkCtxFirst(pass *analysis.Pass, idx *ignoreIndex, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	pos := 0
	for _, field := range ft.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(t) && pos != 0 {
			idx.reportf(pass, field.Pos(),
				"context.Context must be the first parameter")
		}
		pos += n
	}
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
