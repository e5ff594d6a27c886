package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// IoctlSize verifies that ioctl request codes built with local
// iowr/iow/ior helpers declare a size argument consistent with the Go
// struct they marshal. The kernel dispatches KGSL ioctls on the full
// request code — size bits included — so a drifted size is a request the
// real driver would reject with ENOTTY even though the simulation happily
// accepts it.
//
// Convention: a var (or const) named Ioctl<Name> built from iowr/iow/ior
// marshals the struct type <Name> declared in the same package. Struct
// sizes follow the 64-bit kernel ABI: fixed-width integers take their
// own width, pointers take 8 bytes, and a slice field stands for the
// msm_kgsl.h "user pointer + u32 element count" pair (8-aligned pointer
// followed by a uint32). Fields align to their size; the struct pads to
// its widest alignment.
var IoctlSize = &Analyzer{
	Name:     "ioctlsize",
	Category: "driver-fidelity",
	Severity: "error",
	Doc:      "verify iowr(nr, size) sizes match the marshalled struct's kernel ABI size",
	Run:      runIoctlSize,
}

func runIoctlSize(p *Pass) {
	ctors := map[types.Object]bool{}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			switch fd.Name.Name {
			case "iowr", "iow", "ior":
				if obj := p.Pkg.Info.Defs[fd.Name]; obj != nil {
					ctors[obj] = true
				}
			}
		}
	}
	if len(ctors) == 0 {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || (gd.Tok != token.VAR && gd.Tok != token.CONST) {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						continue
					}
					p.checkIoctlDecl(ctors, name, vs.Values[i])
				}
			}
		}
	}
}

func (p *Pass) checkIoctlDecl(ctors map[types.Object]bool, name *ast.Ident, value ast.Expr) {
	structName, ok := strings.CutPrefix(name.Name, "Ioctl")
	if !ok || structName == "" {
		return
	}
	call, ok := value.(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return
	}
	callee, ok := call.Fun.(*ast.Ident)
	if !ok || !ctors[p.Pkg.Info.Uses[callee]] {
		return
	}
	sizeArg := call.Args[len(call.Args)-1]
	declared, ok := p.constUint(sizeArg)
	if !ok {
		p.Reportf(sizeArg.Pos(), "%s: ioctl size argument is not a compile-time constant", name.Name)
		return
	}
	obj := p.Pkg.Types.Scope().Lookup(structName)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return // no matching struct to verify against
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	size, _, err := abiStructSize(st)
	if err != nil {
		p.Reportf(name.Pos(), "%s: cannot compute kernel ABI size of %s: %v", name.Name, structName, err)
		return
	}
	if size != declared {
		p.Reportf(sizeArg.Pos(),
			"%s declares ioctl size %d but struct %s marshals to %d bytes under the 64-bit kernel ABI",
			name.Name, declared, structName, size)
	}
}

// abiStructSize lays a struct out under the 64-bit kernel ABI.
func abiStructSize(st *types.Struct) (size, align uint64, err error) {
	var off, maxAlign uint64 = 0, 1
	place := func(s, a uint64) {
		off = roundUp(off, a)
		off += s
		if a > maxAlign {
			maxAlign = a
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if _, isSlice := field.Type().Underlying().(*types.Slice); isSlice {
			// msm_kgsl.h convention: user pointer + u32 element count.
			place(8, 8)
			place(4, 4)
			continue
		}
		s, a, err := abiTypeSize(field.Type())
		if err != nil {
			return 0, 0, fmt.Errorf("field %s: %w", field.Name(), err)
		}
		place(s, a)
	}
	return roundUp(off, maxAlign), maxAlign, nil
}

// abiTypeSize sizes a single non-slice type under the 64-bit kernel ABI.
func abiTypeSize(t types.Type) (size, align uint64, err error) {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch u.Kind() {
		case types.Bool, types.Int8, types.Uint8:
			return 1, 1, nil
		case types.Int16, types.Uint16:
			return 2, 2, nil
		case types.Int32, types.Uint32, types.Float32:
			return 4, 4, nil
		case types.Int64, types.Uint64, types.Float64:
			return 8, 8, nil
		case types.UnsafePointer:
			return 8, 8, nil
		case types.Int, types.Uint, types.Uintptr:
			return 0, 0, fmt.Errorf("platform-dependent %s; use a fixed-width type", u)
		default:
			return 0, 0, fmt.Errorf("unsupported basic type %s", u)
		}
	case *types.Pointer:
		return 8, 8, nil
	case *types.Array:
		es, ea, err := abiTypeSize(u.Elem())
		if err != nil {
			return 0, 0, err
		}
		return roundUp(es, ea) * uint64(u.Len()), ea, nil
	case *types.Struct:
		return abiStructSize(u)
	default:
		return 0, 0, fmt.Errorf("unsupported type %s", t)
	}
}

func roundUp(n, align uint64) uint64 {
	if align == 0 {
		return n
	}
	return (n + align - 1) / align * align
}
