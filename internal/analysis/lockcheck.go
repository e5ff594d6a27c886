package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockCheck is a heuristic for mutex-guarded struct fields accessed by
// methods that never touch the mutex. By Go convention a `mu sync.Mutex`
// field guards the contiguous block of fields declared directly below it;
// a method that reads or writes one of those fields without mentioning mu
// (locking it, or passing it along) is a data-race candidate. Helper
// methods intentionally called with the lock already held should carry
// //gpuvet:ignore lockcheck -- held by caller.
//
// Only this check catches removing m.mu.Lock()/Unlock() from
// (*ring.Membership).Epoch: the router's probe loop reads the epoch while
// request handlers evict members, but no test runs the two at once, so
// go test -race stays green and TestRepoClean (which runs this suite) is
// the one test that fails.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "flag methods touching mutex-guarded fields without locking the mutex",
	Run:  runLockCheck,
}

// guardedStruct records one struct with a mutex and its guarded fields.
type guardedStruct struct {
	mutexField string
	guarded    map[string]bool
}

func runLockCheck(p *Pass) {
	structs := map[*types.TypeName]*guardedStruct{}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj, ok := p.Pkg.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				if gs := p.findGuarded(st); gs != nil {
					structs[obj] = gs
				}
			}
		}
	}
	if len(structs) == 0 {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := p.receiverTypeName(fd)
			gs := structs[recv]
			if gs == nil {
				continue
			}
			touchesMutex := false
			var firstGuarded *ast.SelectorExpr
			guardedName := ""
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selection, ok := p.Pkg.Info.Selections[sel]
				if !ok || !selectionOn(selection, recv) {
					return true
				}
				name := selection.Obj().Name()
				switch selection.Kind() {
				case types.FieldVal:
					if name == gs.mutexField {
						touchesMutex = true
					} else if gs.guarded[name] && firstGuarded == nil {
						firstGuarded = sel
						guardedName = name
					}
				case types.MethodVal:
					// Promoted or forwarded sync primitives (embedded
					// sync.Mutex) count as touching the mutex.
					if fn, ok := selection.Obj().(*types.Func); ok && isSyncLockMethod(fn) {
						touchesMutex = true
					}
				}
				return true
			})
			if firstGuarded != nil && !touchesMutex {
				p.Reportf(firstGuarded.Pos(),
					"method %s accesses %q (guarded by %q) without locking it (//gpuvet:ignore lockcheck -- held by caller, if so)",
					fd.Name.Name, guardedName, gs.mutexField)
			}
		}
	}
}

// findGuarded locates the first mutex field and the contiguous block of
// fields declared below it (a blank line ends the guarded block).
func (p *Pass) findGuarded(st *ast.StructType) *guardedStruct {
	fields := st.Fields.List
	for i, field := range fields {
		if !isMutexType(p.TypeOf(field.Type)) {
			continue
		}
		name := "Mutex"
		if len(field.Names) > 0 {
			name = field.Names[0].Name
		}
		gs := &guardedStruct{mutexField: name, guarded: map[string]bool{}}
		prevLine := p.Fset.Position(field.End()).Line
		for _, g := range fields[i+1:] {
			if p.Fset.Position(g.Pos()).Line > prevLine+1 {
				break // blank line: new field group, no longer guarded
			}
			for _, n := range g.Names {
				gs.guarded[n.Name] = true
			}
			prevLine = p.Fset.Position(g.End()).Line
		}
		if len(gs.guarded) == 0 {
			return nil
		}
		return gs
	}
	return nil
}

func (p *Pass) receiverTypeName(fd *ast.FuncDecl) *types.TypeName {
	t := fd.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.ParenExpr:
			t = u.X
		case *ast.Ident:
			tn, _ := p.Pkg.Info.Uses[u].(*types.TypeName)
			return tn
		default:
			return nil
		}
	}
}

// selectionOn reports whether a selection's receiver is the named type
// (through any level of pointers).
func selectionOn(sel *types.Selection, tn *types.TypeName) bool {
	if tn == nil {
		return false
	}
	t := sel.Recv()
	for {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj() == tn
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func isSyncLockMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return true
	}
	return false
}
