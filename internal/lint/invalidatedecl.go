package lint

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/xtools/analysis"
)

const invalidatedeclDoc = `require every metric registration to declare invalidation metadata

Prediction reuse (paper §4.2) is only sound because every metric
declares, in its predictors:invalidate list, which option changes
invalidate its cached results; serve's eviction and the bench's
checkpoint skip both trust that metadata. For every
pressio.RegisterMetric call this analyzer resolves the concrete metric
type and checks that its Invalidates method (directly, through
same-package helpers or through the same-package variables it returns)
lists at least one invalidation class (error_dependent, error_agnostic,
runtime, nondeterministic, training); an empty list and an
option-key-only list pin no class and are flagged.`

// InvalidateDecl is the invalidatedecl analyzer.
var InvalidateDecl = &analysis.Analyzer{
	Name: "invalidatedecl",
	Doc:  invalidatedeclDoc,
	Run:  runInvalidateDecl,
}

// invalidateClasses mirrors the constants in internal/pressio; the
// analyzer matches constant-folded values, so it works identically on the
// real package and on fixture stubs.
var invalidateClasses = map[string]bool{
	"predictors:error_dependent":  true,
	"predictors:error_agnostic":   true,
	"predictors:runtime":          true,
	"predictors:nondeterministic": true,
	"predictors:training":         true,
}

func runInvalidateDecl(pass *analysis.Pass) (any, error) {
	idx := newIgnoreIndex(pass, "invalidatedecl")
	decls := funcDecls(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObj(pass.TypesInfo, call)
			if obj == nil || obj.Name() != "RegisterMetric" ||
				obj.Pkg() == nil || !pkgPathMatches(obj.Pkg().Path(), "internal/pressio") ||
				len(call.Args) < 2 {
				return true
			}
			checkRegistration(pass, idx, decls, call)
			return true
		})
	}
	return nil, nil
}

func checkRegistration(pass *analysis.Pass, idx *ignoreIndex, decls map[types.Object]*ast.FuncDecl, call *ast.CallExpr) {
	name := "?"
	if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil {
		if s, ok := stringConst(tv); ok {
			name = s
		}
	}
	metricType := factoryResultType(pass.TypesInfo, call.Args[1])
	if metricType == nil {
		return // factory too dynamic to resolve; out of this analyzer's reach
	}
	inv := lookupMethodDecl(pass, decls, metricType, "Invalidates")
	if inv == nil {
		return // declared in another package; out of this analyzer's reach
	}
	for s := range constStringsIn(pass, decls, inv) {
		if invalidateClasses[s] {
			return
		}
	}
	idx.reportf(pass, call.Pos(),
		"metric %q (%s): Invalidates lists no invalidation class (error_dependent, error_agnostic, runtime, nondeterministic, or training); stale cached predictions would never be evicted",
		name, metricType.Obj().Name())
}

// factoryResultType resolves the concrete named type a metric factory
// returns: a func literal whose return statements yield *T or T, with T
// a named struct type. Returns nil when the factory is too indirect.
func factoryResultType(info *types.Info, factory ast.Expr) *types.Named {
	lit, ok := ast.Unparen(factory).(*ast.FuncLit)
	if !ok {
		return nil
	}
	var named *types.Named
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if named != nil {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		t := info.TypeOf(ret.Results[0])
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if nt, ok := t.(*types.Named); ok {
			if _, isStruct := nt.Underlying().(*types.Struct); isStruct {
				named = nt
			}
		}
		return true
	})
	return named
}

// lookupMethodDecl finds the syntax of typ's method name (value or
// pointer receiver), resolved through the method set so embedding works,
// provided the method is declared in the pass's package.
func lookupMethodDecl(pass *analysis.Pass, decls map[types.Object]*ast.FuncDecl, typ *types.Named, name string) *ast.FuncDecl {
	ms := types.NewMethodSet(types.NewPointer(typ))
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		if m.Name() == name {
			return decls[m]
		}
	}
	return nil
}

// stringConst extracts a constant string value.
func stringConst(tv types.TypeAndValue) (string, bool) {
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
