package analysis

import (
	"go/ast"
	"go/types"
)

// This file holds the shared type-walk utilities every analyzer builds
// on: callee resolution, enclosing-function lookup, context/error type
// tests, and package-scope queries. Analyzers should prefer these over
// hand-rolled AST spelunking so the suite interprets Go the same way
// everywhere.

// calledFunc resolves a call's callee to its types.Func (nil for
// builtins, conversions and indirect calls through variables).
func calledFunc(p *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// eachFuncDecl visits every function declaration with a body in the
// package.
func eachFuncDecl(pkg *Package, visit func(fn *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				visit(fn)
			}
		}
	}
}

// isContextType reports whether t is exactly context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// firstParamIsContext reports whether the signature's leading parameter
// is a context.Context.
func firstParamIsContext(sig *types.Signature) bool {
	return sig != nil && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// implementsError reports whether t (or *t) satisfies the error
// interface — the test for concrete error types and sentinels alike.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface)
}

// isPackageLevel reports whether the object is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// rootIdentObj peels selectors, indexes and parens off an expression and
// resolves the base identifier's object (nil when the base is not a
// plain identifier: calls, literals, ...).
func rootIdentObj(p *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := p.Pkg.Info.Uses[x]; obj != nil {
				return obj
			}
			return p.Pkg.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// recvNamed unwraps a method receiver type to its named type (through
// one pointer).
func recvNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
