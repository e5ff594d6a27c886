package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// CounterGroup flags magic numeric literals where Adreno counter group or
// countable IDs are expected. The paper's attack polls exact register IDs
// from msm_kgsl.h through IOCTL_KGSL_PERFCOUNTER_READ; a literal 0x19
// that silently drifts from adreno.GroupLRZ invalidates every trained
// centroid, so the named constants are mandatory. The check derives the
// constant tables from the adreno package itself — nothing is hardcoded
// that could drift on its own.
var CounterGroup = &Analyzer{
	Name:     "countergroup",
	Category: "driver-fidelity",
	Severity: "error",
	Doc:      "require adreno.Group*/countable constants instead of magic counter IDs",
	Run:      runCounterGroup,
}

// adrenoConsts are the group/countable constant tables extracted from a
// loaded adreno package.
type adrenoConsts struct {
	pkg *types.Package
	// groupByValue maps group ID value -> "GroupLRZ"-style constant name.
	groupByValue map[uint64]string
	// countables maps group prefix ("LRZ") -> countable value -> name.
	countables map[string]map[uint64]string
}

func loadAdrenoConsts(pkg *Package) *adrenoConsts {
	var adreno *types.Package
	if isAdrenoPath(pkg.Path) {
		adreno = pkg.Types
	} else {
		for _, imp := range pkg.Types.Imports() {
			if isAdrenoPath(imp.Path()) {
				adreno = imp
				break
			}
		}
	}
	if adreno == nil {
		return nil
	}
	ac := &adrenoConsts{
		pkg:          adreno,
		groupByValue: map[uint64]string{},
		countables:   map[string]map[uint64]string{},
	}
	scope := adreno.Scope()
	var prefixes []string
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.Int {
			continue
		}
		if rest, found := strings.CutPrefix(name, "Group"); found && rest != "" {
			if v, exact := constant.Uint64Val(c.Val()); exact {
				ac.groupByValue[v] = name
				prefixes = append(prefixes, rest)
			}
		}
	}
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.Int || strings.HasPrefix(name, "Group") {
			continue
		}
		for _, pre := range prefixes {
			if strings.HasPrefix(name, pre) {
				if v, exact := constant.Uint64Val(c.Val()); exact {
					m := ac.countables[pre]
					if m == nil {
						m = map[uint64]string{}
						ac.countables[pre] = m
					}
					// First writer wins; adreno declares one constant
					// per (prefix, value).
					if _, dup := m[v]; !dup {
						m[v] = name
					}
				}
				break
			}
		}
	}
	return ac
}

func isAdrenoPath(path string) bool { return strings.HasSuffix(path, "internal/adreno") }

func runCounterGroup(p *Pass) {
	ac := loadAdrenoConsts(p.Pkg)
	if ac == nil {
		return // package has no adreno dependency, nothing to misuse
	}
	qual := "adreno."
	if p.Pkg.Types == ac.pkg {
		qual = ""
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				p.checkCounterLit(ac, qual, n)
			case *ast.CallExpr:
				p.checkGroupCall(ac, qual, n)
			}
			return true
		})
	}
}

// checkCounterLit inspects composite literals that carry counter IDs:
// adreno.CounterKey values (fields Group/Countable) and KGSL request
// structs (fields GroupID/Countable).
func (p *Pass) checkCounterLit(ac *adrenoConsts, qual string, clit *ast.CompositeLit) {
	t := p.TypeOf(clit)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	groupField := ""
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "GroupID":
			groupField = "GroupID"
		case "Group":
			if isCounterKey(t) {
				groupField = "Group"
			}
		}
	}
	if groupField == "" {
		return
	}
	groupExpr := structFieldExpr(st, clit, groupField)
	countableExpr := structFieldExpr(st, clit, "Countable")
	if groupExpr != nil && p.isMagicConst(groupExpr) {
		v, ok := p.constUint(groupExpr)
		if !ok {
			return
		}
		if name, known := ac.groupByValue[v]; known {
			p.Reportf(groupExpr.Pos(), "magic counter group ID %#x: use %s%s (msm_kgsl.h IDs must not drift)", v, qual, name)
		} else {
			p.Reportf(groupExpr.Pos(), "magic counter group ID %#x matches no adreno.Group* constant (unknown or drifted msm_kgsl.h group)", v)
		}
	}
	// A countable literal is only flagged when a named constant exists
	// for that exact (group, value) pair; bare table definitions for
	// unnamed countables stay legal.
	if countableExpr != nil && groupExpr != nil && p.isMagicConst(countableExpr) {
		gv, gok := p.constUint(groupExpr)
		cv, cok := p.constUint(countableExpr)
		if !gok || !cok {
			return
		}
		groupName, known := ac.groupByValue[gv]
		if !known {
			return
		}
		prefix := strings.TrimPrefix(groupName, "Group")
		if name, has := ac.countables[prefix][cv]; has {
			p.Reportf(countableExpr.Pos(), "magic countable %d in group %s: use %s%s", cv, prefix, qual, name)
		}
	}
}

// checkGroupCall flags literal group IDs passed to the adreno enumeration
// helpers (GroupName, CountersInGroup).
func (p *Pass) checkGroupCall(ac *adrenoConsts, qual string, call *ast.CallExpr) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return
	}
	fn, ok := p.Pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != ac.pkg {
		return
	}
	if fn.Name() != "GroupName" && fn.Name() != "CountersInGroup" {
		return
	}
	if len(call.Args) == 0 || !p.isMagicConst(call.Args[0]) {
		return
	}
	v, ok := p.constUint(call.Args[0])
	if !ok {
		return
	}
	if name, known := ac.groupByValue[v]; known {
		p.Reportf(call.Args[0].Pos(), "magic counter group ID %#x passed to %s: use %s%s", v, fn.Name(), qual, name)
	} else {
		p.Reportf(call.Args[0].Pos(), "magic counter group ID %#x passed to %s matches no adreno.Group* constant", v, fn.Name())
	}
}

// isCounterKey reports whether t is the adreno.CounterKey type.
func isCounterKey(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "CounterKey" && obj.Pkg() != nil && isAdrenoPath(obj.Pkg().Path())
}

// structFieldExpr returns the composite-literal element initializing the
// named field, handling both keyed and positional forms.
func structFieldExpr(st *types.Struct, clit *ast.CompositeLit, field string) ast.Expr {
	for i, elt := range clit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
				return kv.Value
			}
			continue
		}
		// Positional literal: element order is field order.
		if i < st.NumFields() && st.Field(i).Name() == field {
			return elt
		}
	}
	return nil
}

// isMagicConst reports whether e is a compile-time constant expression
// spelled without any named constant (e.g. 0x19, uint32(5), 4+1).
func (p *Pass) isMagicConst(e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	magic := true
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if _, isConst := p.Pkg.Info.Uses[id].(*types.Const); isConst {
				magic = false
				return false
			}
		}
		return magic
	})
	return magic
}

// constUint evaluates a constant integer expression.
func (p *Pass) constUint(e ast.Expr) (uint64, bool) {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Uint64Val(constant.ToInt(tv.Value))
	return v, exact
}
