package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/xtools/analysis"
)

// funcDecls maps every function and method object declared in the pass's
// package to its syntax, so analyzers can walk bodies transitively.
func funcDecls(pass *analysis.Pass) map[types.Object]*ast.FuncDecl {
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

// maxCallDepth bounds the transitive walk through same-package helpers;
// the repo convention is one or two levels of defaulting helpers
// (Options → bins(), Configuration → invalidate(...)).
const maxCallDepth = 5

// visitTransitive invokes visit(fn, node) for every node in fn's body
// and, transitively, in the bodies of same-package functions and methods
// it calls, up to maxCallDepth. Each function is visited once.
func visitTransitive(pass *analysis.Pass, decls map[types.Object]*ast.FuncDecl, fn *ast.FuncDecl, visit func(*ast.FuncDecl, ast.Node)) {
	seen := map[*ast.FuncDecl]bool{}
	var walk func(fd *ast.FuncDecl, depth int)
	walk = func(fd *ast.FuncDecl, depth int) {
		if fd == nil || fd.Body == nil || seen[fd] || depth > maxCallDepth {
			return
		}
		seen[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n != nil {
				visit(fd, n)
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := calleeObj(pass.TypesInfo, call); callee != nil {
					walk(decls[callee], depth+1)
				}
			}
			return true
		})
	}
	walk(fn, 0)
}

// constStringsIn collects every constant-folded string value appearing
// in the transitive closure of fn (call-site arguments included, since
// they appear in caller bodies) and in the initializers of the
// same-package variables it reads, transitively (a shared slice a method
// returns).
func constStringsIn(pass *analysis.Pass, decls map[types.Object]*ast.FuncDecl, fn *ast.FuncDecl) map[string]bool {
	inits := varInits(pass)
	out := map[string]bool{}
	var collect func(ast.Node)
	collect = func(n ast.Node) {
		expr, ok := n.(ast.Expr)
		if !ok {
			return
		}
		if tv, ok := pass.TypesInfo.Types[expr]; ok && tv.Value != nil {
			if s, ok := stringConst(tv); ok {
				out[s] = true
			}
		}
		if id, ok := expr.(*ast.Ident); ok {
			obj := pass.TypesInfo.Uses[id]
			if init, ok := inits[obj]; ok {
				delete(inits, obj) // each initializer once
				ast.Inspect(init, func(n ast.Node) bool {
					collect(n)
					return true
				})
			}
		}
	}
	visitTransitive(pass, decls, fn, func(_ *ast.FuncDecl, n ast.Node) { collect(n) })
	return out
}

// varInits maps each package-level variable of the pass's package that
// has its own initializer to that expression.
func varInits(pass *analysis.Pass) map[types.Object]ast.Expr {
	inits := map[types.Object]ast.Expr{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if len(vs.Values) != len(vs.Names) {
					continue
				}
				for i, name := range vs.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						inits[obj] = vs.Values[i]
					}
				}
			}
		}
	}
	return inits
}
