package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/xtools/analysis"
)

const poolescapeDoc = `forbid pooled/refcounted scratch values from outliving their release

The compression kernels (DESIGN.md §10) recycle scratch buffers
through sync.Pool, and the tiered dataset cache (DESIGN.md §15) hands
out refcounted mmap-backed handles; correctness of the -race concurrency
drills rests on each in-flight computation holding its scratch
exclusively until it surrenders it. The analyzer knows the repo's
acquire/release pairs (see poolPairs): sync.Pool Get/Put and
dataset.TieredCache.Acquire/dataset.Handle.Release. Within a function
that acquires such a value it reports:

  - a return statement that mentions the acquired value when the
    function also releases it (the caller would receive a buffer already
    surrendered — for a cache handle, memory the evictor may unmap);
  - any use of the acquired value after a non-deferred release in the
    same statement list;
  - storing the acquired value into a struct field or package-level
    variable (retention beyond the call);
  - returning the acquired value from a function that never releases
    it — an ownership-transfer accessor. Deliberate accessors
    (getScratch/putScratch pairs, handle-returning getters that also hand
    the caller the release func) carry //lint:ignore
    pressiovet/poolescape.

Copies via append(<fresh slice>, v...) are recognized and not flagged.
The analysis is per-function and syntactic: it does not chase acquired
values through helper calls or into local struct fields.`

// PoolEscape is the poolescape analyzer.
var PoolEscape = &analysis.Analyzer{
	Name: "poolescape",
	Doc:  poolescapeDoc,
	Run:  runPoolEscape,
}

// poolPairs are the acquire/release method pairs the analyzer tracks,
// by types.Func full name. The release method may live on the acquired
// value itself (Handle.Release) or on the pool (sync.Pool.Put) — either
// way a release "mentions" the tracked object, which is all the checks
// need.
var poolPairs = struct{ acquire, release []string }{
	acquire: []string{
		"(*sync.Pool).Get",
		"(*repro/internal/dataset.TieredCache).Acquire",
	},
	release: []string{
		"(*sync.Pool).Put",
		"(*repro/internal/dataset.Handle).Release",
	},
}

func runPoolEscape(pass *analysis.Pass) (any, error) {
	idx := newIgnoreIndex(pass, "poolescape")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			analyzePoolFn(pass, idx, fn)
			return true
		})
	}
	return nil, nil
}

// poolCall reports whether call invokes one of the named methods
// (types.Func full names, as listed in poolPairs).
func poolCall(info *types.Info, call *ast.CallExpr, names []string) bool {
	obj := calleeObj(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	full := fn.FullName()
	for _, n := range names {
		if full == n {
			return true
		}
	}
	return false
}

func analyzePoolFn(pass *analysis.Pass, idx *ignoreIndex, fn *ast.FuncDecl) {
	info := pass.TypesInfo

	// pass 1: variables bound to an acquire-call result
	tracked := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		rhs := ast.Unparen(as.Rhs[0])
		if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
			rhs = ast.Unparen(ta.X)
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !poolCall(info, call, poolPairs.acquire) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil {
				tracked[obj] = true
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	// pass 2: release calls per tracked object (deferred or not)
	putAny := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !poolCall(info, call, poolPairs.release) {
			return true
		}
		for obj := range tracked {
			if mentionsObj(info, call, obj) {
				putAny[obj] = true
			}
		}
		return true
	})

	// pass 3: reports
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				for obj := range tracked {
					if !mentionsObj(info, res, obj) {
						continue
					}
					if putAny[obj] {
						idx.reportf(pass, n.Pos(),
							"pooled %s is returned after being released: the caller would share memory the pool or cache may hand to another user", obj.Name())
					} else {
						idx.reportf(pass, n.Pos(),
							"pooled %s escapes via return: copy it, or mark the deliberate ownership-transfer accessor with a lint:ignore", obj.Name())
					}
				}
			}
		case *ast.AssignStmt:
			checkPoolStore(pass, idx, info, n, tracked)
		case *ast.BlockStmt:
			checkUseAfterPut(pass, idx, info, n.List, tracked)
		case *ast.CaseClause:
			checkUseAfterPut(pass, idx, info, n.Body, tracked)
		case *ast.CommClause:
			checkUseAfterPut(pass, idx, info, n.Body, tracked)
		}
		return true
	})
}

// checkPoolStore flags stores of a pooled value into a struct field or a
// package-level variable.
func checkPoolStore(pass *analysis.Pass, idx *ignoreIndex, info *types.Info, as *ast.AssignStmt, tracked map[types.Object]bool) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) && len(as.Rhs) != 1 {
			break
		}
		rhs := as.Rhs[min(i, len(as.Rhs)-1)]
		var obj types.Object
		for o := range tracked {
			if mentionsObj(info, rhs, o) {
				obj = o
				break
			}
		}
		if obj == nil {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal {
				idx.reportf(pass, as.Pos(),
					"pooled %s stored in field %s: it would outlive the call that owns it", obj.Name(), l.Sel.Name)
			}
		case *ast.Ident:
			if o := objOf(info, l); o != nil && isPackageLevel(o) {
				idx.reportf(pass, as.Pos(),
					"pooled %s stored in package-level %s: it would outlive the call that owns it", obj.Name(), l.Name)
			}
		}
	}
}

// checkUseAfterPut scans one statement list in order: a statement that
// mentions a pooled variable after a non-deferred Put of it is a bug.
// Re-binding the variable (e.g. a fresh Get) re-arms it.
func checkUseAfterPut(pass *analysis.Pass, idx *ignoreIndex, info *types.Info, stmts []ast.Stmt, tracked map[types.Object]bool) {
	put := map[types.Object]bool{}
	for _, st := range stmts {
		// a fresh binding of the variable clears its put state
		if as, ok := st.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if o := objOf(info, id); o != nil {
						delete(put, o)
					}
				}
			}
		}
		if _, isReturn := st.(*ast.ReturnStmt); !isReturn { // returns have their own check
			for obj := range put {
				if mentionsObj(info, st, obj) {
					idx.reportf(pass, st.Pos(),
						"pooled %s used after release: the pool or cache may already have handed its memory to another user", obj.Name())
				}
			}
		}
		if es, ok := st.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok && poolCall(info, call, poolPairs.release) {
				for obj := range tracked {
					if mentionsObj(info, call, obj) {
						put[obj] = true
					}
				}
			}
		}
	}
}

// mentionsObj reports whether node references obj, treating
// append(<fresh>, v...) as a copy (not a mention) when the destination
// slice is not itself derived from obj.
func mentionsObj(info *types.Info, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBuiltinAppend(info, call) && len(call.Args) > 0 {
			if !mentionsObj(info, call.Args[0], obj) {
				return false // copying into a fresh slice: safe
			}
		}
		if id, ok := n.(*ast.Ident); ok && objOf(info, id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
