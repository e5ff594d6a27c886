package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ObsEvent enforces the telemetry layer's registration discipline. The
// deterministic event stream is only auditable if every event name is a
// package-level constant registered through obs.NewName — so the full
// vocabulary of a binary is readable from its var blocks — and only
// deterministic if timestamps never derive from the wall clock. Four
// shapes violate that:
//
//  1. obs.Name("...") conversions mint unregistered names, bypassing the
//     duplicate check;
//  2. obs.NewName calls inside function bodies register names lazily, so
//     the vocabulary (and the duplicate panic) depends on execution path;
//  3. Emit/Start with a name expression that is not a package-level
//     variable cannot be traced back to a registration site;
//  4. sim.Time conversions of wall-clock (package time) values in the
//     timestamp argument smuggle nondeterminism into the stream;
//  5. inline string literals naming metrics at Add/Observe/
//     ObserveExemplar/Counter call sites scatter the metric namespace
//     across the code — names must come from declared constants (or
//     functions over them), one greppable block per package.
//
// Only this check catches replacing mQueueDepth with the misspelled
// literal "parallel.queue_dept" in the worker pool's Observe call, which
// splits the queue-depth series in two: TestRepoClean (which runs this
// suite) is the one test that fails.
var ObsEvent = &Analyzer{
	Name: "obsevent",
	Doc:  "obs event names must be package-level obs.NewName registrations; Emit/Start timestamps must not derive from the wall clock; metric names must be declared constants, not inline literals",
	Applies: func(pkgPath string) bool {
		// The obs package itself converts names when parsing streams.
		return isInternalPath(pkgPath) && !strings.HasSuffix(pkgPath, "internal/obs")
	},
	Run: runObsEvent,
}

const obsPkgSuffix = "internal/obs"

func isObsPkg(pkg *types.Package) bool {
	return pkg != nil && strings.HasSuffix(pkg.Path(), obsPkgSuffix)
}

func runObsEvent(p *Pass) {
	for _, file := range p.Pkg.Files {
		// Function-body ranges: obs.NewName is only legal outside them.
		var bodies []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
		inBody := func(n ast.Node) bool {
			for _, b := range bodies {
				if b.Pos() <= n.Pos() && n.End() <= b.End() {
					return true
				}
			}
			return false
		}

		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if tv, ok := p.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
				// A conversion: is the target type obs.Name?
				if named, ok := tv.Type.(*types.Named); ok &&
					named.Obj().Name() == "Name" && isObsPkg(named.Obj().Pkg()) {
					p.Reportf(call.Pos(), "obs.Name conversion bypasses the name registry: declare the event with obs.NewName in a package-level var block")
				}
				return true
			}
			switch fn := calledFunc(p, call); {
			case fn == nil:
			case fn.Name() == "NewName" && isObsPkg(fn.Pkg()):
				if inBody(call) {
					p.Reportf(call.Pos(), "obs.NewName inside a function body registers event names lazily: move the registration to a package-level var block")
				}
			case (fn.Name() == "Emit" || fn.Name() == "Start") && isObsPkg(fn.Pkg()) && fn.Type().(*types.Signature).Recv() != nil:
				checkEmitCall(p, call, fn.Name())
			case isMetricsMethod(fn):
				checkMetricName(p, call, fn.Name())
			}
			return true
		})
	}
}

// checkEmitCall validates one Tracer.Emit/Start call site: the name
// argument (index 1) must resolve to a package-level variable, and the
// timestamp argument (index 0) must not convert a package-time value.
func checkEmitCall(p *Pass, call *ast.CallExpr, what string) {
	if len(call.Args) < 2 {
		return
	}
	var nameID *ast.Ident
	switch e := ast.Unparen(call.Args[1]).(type) {
	case *ast.Ident:
		nameID = e
	case *ast.SelectorExpr:
		nameID = e.Sel
	}
	ok := false
	if nameID != nil {
		if v, isVar := p.Pkg.Info.Uses[nameID].(*types.Var); isVar &&
			v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			ok = true
		}
	}
	if !ok {
		p.Reportf(call.Args[1].Pos(), "%s name must be a package-level obs.NewName registration, not an inline expression", what)
	}

	// The timestamp must stay inside the sim.Time domain: any value of a
	// package-time type (time.Time, time.Duration) feeding into it
	// injects wall-clock data the deterministic stream must never carry.
	reported := false
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		if reported {
			return false
		}
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return true
		}
		t := p.TypeOf(id)
		if t == nil {
			return true
		}
		if named, isNamed := t.(*types.Named); isNamed &&
			named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "time" {
			p.Reportf(id.Pos(), "%s timestamp derives from a package-time value: derive event times from sim.Time, never the wall clock", what)
			reported = true
			return false
		}
		return true
	})
}

// isMetricsMethod reports whether fn is one of the obs.Metrics recording
// methods whose first argument names a metric.
func isMetricsMethod(fn *types.Func) bool {
	if fn == nil || !isObsPkg(fn.Pkg()) {
		return false
	}
	switch fn.Name() {
	case "Add", "Observe", "ObserveExemplar", "Counter":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	return isNamed && named.Obj().Name() == "Metrics"
}

// checkMetricName validates one Metrics.Add/Observe/ObserveExemplar/
// Counter call site: the name argument (index 0) must contain no string
// literal. Declared constants, selectors, and helper functions that map
// onto constants all pass; "pkg.thing" and "pkg."+kind do not.
func checkMetricName(p *Pass, call *ast.CallExpr, what string) {
	if len(call.Args) < 1 {
		return
	}
	reported := false
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		if reported {
			return false
		}
		if lit, isLit := n.(*ast.BasicLit); isLit && lit.Kind == token.STRING {
			p.Reportf(lit.Pos(), "%s metric name contains an inline string literal: declare the name as a package-level constant so the metric namespace stays in one block", what)
			reported = true
			return false
		}
		return true
	})
}
