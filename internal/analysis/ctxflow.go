package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces end-to-end context threading through internal/. The
// serving layer's cancellation guarantees (a canceled request stops at
// the next sampler tick, drains cleanly, and never completes a sweep it
// no longer needs) only hold if every layer passes the caller's context
// down instead of minting a fresh root. Two shapes break the chain:
//
//  1. context.Background()/context.TODO() in library code silently
//     detaches everything below it from cancellation. Both are forbidden
//     in internal/ outside _test.go files; Background is allowed in one
//     documented shape only, a resolver whose result type is
//     context.Context (Options.Context-style defaulting). A context-free
//     wrapper around a context-aware entry point is a finding: every
//     entry point takes its caller's context. TODO is never allowed: it
//     is a marker for unfinished plumbing.
//
//  2. A function already holding a context.Context that calls the
//     context-free variant of a callee with a *Context/*Ctx sibling
//     drops the context on the floor mid-chain: the callee runs
//     uncancellable even though the caller could have threaded it.
//
// Only this check catches calling st.Run with context.Background()
// instead of its ctx parameter in exp's trial runner (trial.run), so
// that a canceled experiment samples each in-flight trial to its end:
// TestRepoClean (which runs this suite) is the one test that fails. A
// function that holds no context is outside this check, which is why
// every experiment eavesdrops through that runner.
var CtxFlow = &Analyzer{
	Name:    "ctxflow",
	Doc:     "context.Context must thread end-to-end: no Background/TODO in internal/ outside tests and documented context resolvers; context holders must call *Context variants",
	Applies: isInternalPath,
	Run:     runCtxFlow,
}

func runCtxFlow(p *Pass) {
	eachFuncDecl(p.Pkg, func(fn *ast.FuncDecl) {
		ctxParams := contextParams(p, fn)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calledFunc(p, call)
			if callee == nil {
				return true
			}
			checkRootContext(p, fn, call, callee, len(ctxParams) > 0)
			if len(ctxParams) > 0 {
				checkDroppedContext(p, call, callee)
			}
			return true
		})
	})
}

// contextParams returns the function's context.Context parameter objects.
func contextParams(p *Pass, fn *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fn.Type.Params == nil {
		return nil
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := p.Pkg.Info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// checkRootContext reports context.Background()/TODO() calls outside a
// documented context resolver.
func checkRootContext(p *Pass, fn *ast.FuncDecl, call *ast.CallExpr, callee *types.Func, holdsCtx bool) {
	if callee.Pkg() == nil || callee.Pkg().Path() != "context" {
		return
	}
	switch callee.Name() {
	case "TODO":
		p.Reportf(call.Pos(), "context.TODO marks unfinished plumbing: thread the caller's context")
	case "Background":
		if holdsCtx {
			p.Reportf(call.Pos(), "context.Background inside a function that already holds a context detaches the callee from cancellation: pass the context parameter instead")
			return
		}
		if isContextResolver(p, fn) {
			return
		}
		p.Reportf(call.Pos(), "context.Background in library code detaches everything below from cancellation: accept a context.Context")
	}
}

// isContextResolver recognizes the documented defaulting-resolver shape:
// a function with a doc comment whose sole result type is
// context.Context (Options.Context returning the configured context or
// Background when unset).
func isContextResolver(p *Pass, fn *ast.FuncDecl) bool {
	if fn.Doc == nil || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
		return false
	}
	t := p.TypeOf(fn.Type.Results.List[0].Type)
	return t != nil && isContextType(t)
}

// checkDroppedContext reports calls from a context-holding function to a
// context-free callee that has a context-aware sibling (same name with a
// Context/Ctx suffix, leading context.Context parameter) on the same
// receiver or in the same package.
func checkDroppedContext(p *Pass, call *ast.CallExpr, callee *types.Func) {
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil || firstParamIsContext(sig) {
		return
	}
	for _, suffix := range []string{"Context", "Ctx"} {
		sibling := lookupSibling(callee, callee.Name()+suffix)
		if sibling == nil {
			continue
		}
		sibSig, _ := sibling.Type().(*types.Signature)
		if firstParamIsContext(sibSig) {
			p.Reportf(call.Pos(), "%s drops the context this function already holds: call %s with it", callee.Name(), sibling.Name())
			return
		}
	}
}

// lookupSibling finds a function or method named name alongside fn: in
// the method set of fn's receiver for methods, in fn's package scope for
// plain functions.
func lookupSibling(fn *types.Func, name string) *types.Func {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	if recv := sig.Recv(); recv != nil {
		named := recvNamed(recv.Type())
		if named == nil {
			return nil
		}
		if iface, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				if m := iface.Method(i); m.Name() == name {
					return m
				}
			}
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == name {
				return m
			}
		}
		return nil
	}
	if fn.Pkg() == nil {
		return nil
	}
	sib, _ := fn.Pkg().Scope().Lookup(name).(*types.Func)
	return sib
}
