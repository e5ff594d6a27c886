package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetMap enforces the determinism contract at map-iteration sites. Go
// randomizes map iteration order, so any map range whose per-entry
// results reach ordered output — JSONL telemetry lines, report table
// rows, HTTP response bodies, accumulated slices — produces a different
// byte stream every run unless the entries pass through a sort first.
// Two shapes are flagged:
//
//  1. Serializing directly from inside the loop body (fmt.Fprint*/Print*,
//     io.WriteString, Write/WriteString/Encode/AddRow method calls): the
//     output order is the map's random order. Collect the keys, sort,
//     then emit.
//
//  2. Appending to a slice declared outside the loop that is never
//     passed through sort.*/slices.Sort* later in the same function: the
//     slice's element order is scheduling-dependent the moment it
//     escapes. (The collect-then-sort idiom — append keys, sort.Strings,
//     range the sorted slice — is exactly what passes.)
//
// Order-independent bodies (building another map, summing, counting,
// min/max folds) stay silent.
var DetMap = &Analyzer{
	Name:     "detmap",
	Category: "determinism",
	Doc:      "map iteration feeding ordered output (serialization, report slices) must pass through a sort",
	Run:      runDetMap,
}

// serializeMethods are method names that commit bytes or rows in call
// order. A map-range body calling one of these serializes in random
// order.
var serializeMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
	"AddRow":      true,
	"Emit":        true,
}

func runDetMap(p *Pass) {
	eachFuncDecl(p.Pkg, func(fn *ast.FuncDecl) {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(p, fn, rng)
			return true
		})
	})
}

func checkMapRange(p *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sink, name := serializationSink(p, x); sink {
				p.Reportf(x.Pos(), "%s inside a map range serializes in random iteration order: collect the keys, sort, then emit", name)
			}
		case *ast.AssignStmt:
			checkAppendAccumulation(p, fn, rng, x)
		}
		return true
	})
}

// serializationSink reports whether the call commits ordered output.
func serializationSink(p *Pass, call *ast.CallExpr) (bool, string) {
	callee := calledFunc(p, call)
	if callee == nil {
		return false, ""
	}
	if pkg := callee.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "fmt":
			name := callee.Name()
			if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
				return true, "fmt." + name
			}
		case "io":
			if callee.Name() == "WriteString" {
				return true, "io.WriteString"
			}
		}
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && serializeMethods[callee.Name()] {
		return true, callee.Name()
	}
	return false, ""
}

// checkAppendAccumulation flags `s = append(s, ...)` in a map-range body
// when s is declared outside the loop and never sorted afterwards in the
// enclosing function.
func checkAppendAccumulation(p *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
			continue
		}
		lhs := as.Lhs[0]
		if len(as.Lhs) == len(as.Rhs) {
			lhs = as.Lhs[i]
		}
		obj := rootIdentObj(p, lhs)
		if obj == nil {
			continue
		}
		// Declared inside the loop body: per-entry scratch, ordering local.
		if rng.Body.Pos() <= obj.Pos() && obj.Pos() <= rng.Body.End() {
			continue
		}
		if sortedAfter(p, fn, rng, obj) {
			continue
		}
		p.Reportf(as.Pos(), "appending %s across a map range accumulates in random iteration order and it is never sorted in %s: sort it (sort.*/slices.Sort*) before it escapes", obj.Name(), fn.Name.Name)
	}
}

// sortedAfter reports whether the enclosing function passes obj to a
// sort.*/slices.* call after the range statement ends.
func sortedAfter(p *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		callee := calledFunc(p, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if pkgPath := callee.Pkg().Path(); pkgPath != "sort" && pkgPath != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if rootIdentObj(p, arg) == obj {
				found = true
				return false
			}
			// sort.Slice(x, func(i, j int) bool { ... }) mentions x first.
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && p.Pkg.Info.Uses[id] == obj {
					found = true
					return false
				}
				return !found
			})
			if found {
				return false
			}
		}
		return true
	})
	return found
}
