// Package lint holds pressiovet, the repo's static-analysis suite: five
// golang.org/x/tools/go/analysis analyzers that mechanically enforce
// invariants the compiler cannot see but the paper's correctness story
// depends on (DESIGN.md §11):
//
//   - opthashcomplete: every exported field of a struct whose Options()
//     feeds opthash.Hash is reachable by the hasher, so new fields cannot
//     silently fall out of checkpoint keys (§4.3 stable indexing).
//   - invalidatedecl: every metric plugin registration declares at least
//     one predictors:invalidate class, so stale predictions are evicted
//     (§4.2 invalidation metadata).
//   - poolescape: values obtained from sync.Pool scratch are not retained
//     past Put or returned to callers (DESIGN.md §10 pooled kernels).
//   - ctxflow: no context.Background()/TODO() inside queue/serve/bench
//     library code; ctx is the first parameter (resilience, §8).
//   - detrand: no bare time.Now()/global math/rand in replay-sensitive
//     paths, keeping seeded fault plans deterministic (§8).
//
// The suite is driven by cmd/pressiovet through the go vet -vettool
// protocol (`make lint`). Intentional violations are suppressed with
//
//	//lint:ignore pressiovet/<analyzer> <justification>
//
// on, or on the line above, the flagged line; the justification is
// mandatory — a directive without one does not suppress anything.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/token"
	"go/types"

	"repro/internal/xtools/analysis"
)

// Analyzers returns the full pressiovet suite in stable order. This is
// the single registration point: cmd/pressiovet drives exactly this set,
// and the meta-test in lint_test.go pins its contents.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		OptHashComplete,
		InvalidateDecl,
		PoolEscape,
		CtxFlow,
		DetRand,
	}
}

// Validate is analysis.Validate plus the rule the drivers here rely on:
// no analyzer, nor any analyzer it requires, declares FactTypes. Facts
// carry results from a package to its importers; cmd/pressiovet passes
// none and RunUnit gives a Pass no fact functions.
func Validate(analyzers []*analysis.Analyzer) error {
	if err := analysis.Validate(analyzers); err != nil {
		return err
	}
	var visit func(as []*analysis.Analyzer) error
	visit = func(as []*analysis.Analyzer) error {
		for _, a := range as {
			if len(a.FactTypes) > 0 {
				return fmt.Errorf("analyzer %s declares FactTypes, but pressiovet's fact plumbing was removed; restore it from git history (git log --diff-filter=D -- internal/xtools/facts)", a.Name)
			}
			if err := visit(a.Requires); err != nil {
				return err
			}
		}
		return nil
	}
	return visit(analyzers)
}

// RunUnit runs each root analyzer over one type-checked package, each
// after the analyzers it requires, one at a time and each once. It
// returns the diagnostics every analyzer that ran reported; an analyzer
// that fails stops the run. cmd/pressiovet and linttest both drive the
// suite through it.
func RunUnit(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, roots []*analysis.Analyzer) (map[*analysis.Analyzer][]analysis.Diagnostic, error) {
	sizes := types.SizesFor("gc", build.Default.GOARCH)
	results := map[*analysis.Analyzer]any{}
	diags := map[*analysis.Analyzer][]analysis.Diagnostic{}
	var run func(a *analysis.Analyzer) error
	run = func(a *analysis.Analyzer) error {
		if _, done := results[a]; done {
			return nil
		}
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			TypesSizes: sizes,
			ResultOf:   map[*analysis.Analyzer]any{},
			Report:     func(d analysis.Diagnostic) { diags[a] = append(diags[a], d) },
		}
		for _, req := range a.Requires {
			if err := run(req); err != nil {
				return err
			}
			pass.ResultOf[req] = results[req]
		}
		res, err := a.Run(pass)
		if err != nil {
			return fmt.Errorf("%s failed on %s: %w", a.Name, pkg.Path(), err)
		}
		results[a] = res
		return nil
	}
	for _, a := range roots {
		if err := run(a); err != nil {
			return nil, err
		}
	}
	return diags, nil
}
