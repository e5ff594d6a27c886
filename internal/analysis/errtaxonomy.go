package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// ErrTaxonomy enforces the repository's typed error discipline. The
// serving layer maps error identity onto HTTP statuses and the fault
// plane classifies retryability by identity, so identity must flow
// through errors.Is/As — never string matching, never raw pointer
// equality against wrapped values. Three rules:
//
//  1. No err.Error() string matching: comparing or strings.Contains-ing
//     rendered text breaks the moment a layer wraps the error with
//     context. Rendering for display (logs, HTTP bodies) stays legal.
//
//  2. No ==/!= between error values unless the other operand is nil or
//     a package-level sentinel variable: wrapped errors never compare
//     equal, so non-sentinel equality is either dead or wrong. (Even for
//     sentinels errors.Is is the idiom; == against a declared sentinel
//     is tolerated because it is at least identity-correct.)
//
//  3. The facade's public taxonomy lives in errors.go: every exported
//     package-level error value of the root package must be declared
//     there, so the whole surface a caller can errors.Is against is
//     readable from one file.
//
// Only this check catches replacing errors.Is(err,
// exp.ErrUnknownExperiment) in serve's statusFor with
// strings.Contains(err.Error(), "unknown experiment"), which answers 404
// for any error whose text mentions one: TestRepoClean (which runs this
// suite) is the one test that fails.
var ErrTaxonomy = &Analyzer{
	Name: "errtaxonomy",
	Doc:  "error identity flows through errors.Is/As: no err.Error() matching, no == against non-sentinel errors, facade taxonomy lives in errors.go",
	Run:  runErrTaxonomy,
}

// stringMatchFuncs are the strings/bytes/regexp helpers that turn a
// rendered error into a match decision.
var stringMatchFuncs = map[string]map[string]bool{
	"strings": {
		"Contains": true, "HasPrefix": true, "HasSuffix": true,
		"EqualFold": true, "Index": true, "Count": true,
	},
	"regexp": {"MatchString": true},
}

func runErrTaxonomy(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if x.Op == token.EQL || x.Op == token.NEQ {
					checkErrComparison(p, x)
				}
			case *ast.CallExpr:
				checkStringMatch(p, x)
			}
			return true
		})
	}
	checkFacadeTaxonomy(p)
}

// errErrorCall reports whether e is a call to the error interface's
// Error method (directly on an error-typed value).
func errErrorCall(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	recv := p.TypeOf(sel.X)
	return recv != nil && implementsError(recv)
}

// checkErrComparison applies rules 1 and 2 to one ==/!= expression.
func checkErrComparison(p *Pass, be *ast.BinaryExpr) {
	// Rule 1: either side renders an error to text for the comparison.
	if errErrorCall(p, be.X) || errErrorCall(p, be.Y) {
		p.Reportf(be.Pos(), "comparing err.Error() text breaks under wrapping: match identity with errors.Is (or errors.As for typed errors)")
		return
	}
	// Rule 2: error identity compared with == against a non-sentinel.
	xt, yt := p.TypeOf(be.X), p.TypeOf(be.Y)
	if !isErrorType(xt) && !isErrorType(yt) {
		return
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		t := p.TypeOf(side)
		if t == nil {
			continue
		}
		if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			return // err == nil / err != nil is the canonical check
		}
	}
	// Both sides are real error values: one of them must be a declared
	// package-level sentinel for == to be identity-correct.
	if isSentinel(p, be.X) || isSentinel(p, be.Y) {
		return
	}
	p.Reportf(be.Pos(), "==/!= between non-sentinel error values never matches wrapped errors: use errors.Is/errors.As")
}

// isSentinel reports whether the expression resolves to a package-level
// error variable (an exported or unexported sentinel like io.EOF).
func isSentinel(p *Pass, e ast.Expr) bool {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	v, ok := p.Pkg.Info.Uses[id].(*types.Var)
	return ok && isPackageLevel(v) && isErrorType(v.Type())
}

// checkStringMatch applies rule 1 to strings.Contains-style calls whose
// arguments derive from err.Error().
func checkStringMatch(p *Pass, call *ast.CallExpr) {
	callee := calledFunc(p, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	funcs := stringMatchFuncs[callee.Pkg().Path()]
	if funcs == nil || !funcs[callee.Name()] {
		return
	}
	for _, arg := range call.Args {
		if errErrorCall(p, arg) {
			p.Reportf(arg.Pos(), "%s.%s over err.Error() text breaks under wrapping: match identity with errors.Is/errors.As", callee.Pkg().Name(), callee.Name())
			return
		}
	}
}

// checkFacadeTaxonomy applies rule 3: in the module root package, every
// exported package-level error value must be declared in errors.go.
func checkFacadeTaxonomy(p *Pass) {
	if p.Pkg.Types == nil || p.Pkg.Path != p.Pkg.Types.Name() {
		// Only the facade (import path == package name, i.e. the module
		// root "gpuleak") carries the public taxonomy rule.
		return
	}
	scope := p.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok || !v.Exported() || !implementsError(v.Type()) {
			continue
		}
		pos := p.Fset.Position(v.Pos())
		if filepath.Base(pos.Filename) == "errors.go" {
			continue
		}
		p.Reportf(v.Pos(), "exported error value %s must live in errors.go, the facade's public taxonomy file", name)
	}
}
