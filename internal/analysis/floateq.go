package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatEqPaths are the packages holding the classifier's distance math.
// Centroid distances, weights and thresholds are accumulated floats;
// comparing them with ==/!= silently depends on rounding and breaks the
// nearest-centroid decision the whole attack rests on.
var floatEqPaths = map[string]bool{
	"gpuleak/internal/stats":  true,
	"gpuleak/internal/attack": true,
}

// FloatEq forbids ==/!= between floating-point operands (including
// arrays/structs with float components) in the distance-math packages.
//
// Only this check catches changing max <= min to max == min in
// stats.NewHistogram, which lets a reversed range bin with a negative
// width: TestRepoClean (which runs this suite) is the one test that
// fails.
var FloatEq = &Analyzer{
	Name:     "floateq",
	Category: "hygiene",
	Doc:      "forbid ==/!= on float-typed operands in internal/stats and internal/attack",
	Applies:  func(path string) bool { return floatEqPaths[path] },
	Run:      runFloatEq,
}

func runFloatEq(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if containsFloat(p.TypeOf(be.X)) || containsFloat(p.TypeOf(be.Y)) {
				p.Reportf(be.OpPos, "%s on floating-point operands: compare with a tolerance or an ordering (e.g. <=) instead", be.Op)
			}
			return true
		})
	}
}

// containsFloat reports whether comparing two values of type t compares
// floating-point representations somewhere.
func containsFloat(t types.Type) bool {
	switch u := t.(type) {
	case nil:
		return false
	case *types.Basic:
		return u.Info()&(types.IsFloat|types.IsComplex) != 0
	case *types.Array:
		return containsFloat(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsFloat(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Named:
		return containsFloat(u.Underlying())
	case *types.Alias:
		return containsFloat(types.Unalias(u))
	default:
		return false
	}
}
