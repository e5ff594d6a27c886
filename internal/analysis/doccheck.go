package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// DocCheck enforces godoc coverage on the repository's documented surface:
// the gpuleak facade plus the packages whose doc comments external callers
// and operators read (serve, obs, fault, defense). Every exported symbol
// needs a doc comment, functions and types must follow the godoc
// convention of starting with the symbol's name (articles allowed for
// types), and each package needs a package comment. Grouped const/var
// blocks may share one block-level doc comment, matching stdlib idiom.
//
// The check is deliberately scoped: internal simulation packages evolve
// quickly and their contracts live in tests; the facade and the serving
// layer are the API whose docs are the contract.
//
// Only this check catches deleting gpuleak.Train's doc comment:
// TestRepoClean (which runs this suite) is the one test that fails.
var DocCheck = &Analyzer{
	Name:    "doccheck",
	Doc:     "exported symbols on the documented surface (facade, serve, obs, fault, defense) must carry godoc comments",
	Applies: isDocumentedSurface,
	Run:     runDocCheck,
}

// docSurface lists the packages whose godoc is treated as API contract.
var docSurface = []string{
	"gpuleak",
	"gpuleak/internal/serve",
	"gpuleak/internal/obs",
	"gpuleak/internal/fault",
	"gpuleak/internal/defense",
}

func isDocumentedSurface(pkgPath string) bool {
	for _, p := range docSurface {
		if pkgPath == p {
			return true
		}
	}
	return false
}

func runDocCheck(p *Pass) {
	havePkgDoc := false
	var firstPkgClause token.Pos
	for _, file := range p.Pkg.Files {
		if file.Doc != nil {
			havePkgDoc = true
		}
		if firstPkgClause == token.NoPos || file.Package < firstPkgClause {
			firstPkgClause = file.Package
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFuncDoc(p, d)
			case *ast.GenDecl:
				checkGenDoc(p, d)
			}
		}
	}
	if !havePkgDoc && firstPkgClause != token.NoPos {
		p.Reportf(firstPkgClause, "package %s has no package comment: document what the package provides and its determinism contract", p.Pkg.Types.Name())
	}
}

// checkFuncDoc validates one exported function or method. Methods on
// unexported receiver types are skipped: they are only reachable through
// the (documented) interfaces or constructors that expose them.
func checkFuncDoc(p *Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() {
		return
	}
	if d.Recv != nil && !exportedRecv(d.Recv) {
		return
	}
	kind := "function"
	if d.Recv != nil {
		kind = "method"
	}
	if d.Doc == nil {
		p.Reportf(d.Name.Pos(), "exported %s %s is missing a doc comment", kind, d.Name.Name)
		return
	}
	if !docStartsWith(d.Doc.Text(), d.Name.Name, false) {
		p.Reportf(d.Doc.Pos(), "doc comment for %s %s should start with %q (godoc convention)", kind, d.Name.Name, d.Name.Name)
	}
}

// checkGenDoc validates a top-level type/const/var declaration. A grouped
// const/var block with a block-level doc comment documents every spec in
// it; otherwise each exported spec needs its own doc or trailing comment.
func checkGenDoc(p *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			doc := s.Doc
			if doc == nil {
				doc = d.Doc
			}
			if doc == nil {
				p.Reportf(s.Name.Pos(), "exported type %s is missing a doc comment", s.Name.Name)
				continue
			}
			if !docStartsWith(doc.Text(), s.Name.Name, true) {
				p.Reportf(doc.Pos(), "doc comment for type %s should start with %q (articles A/An/The allowed)", s.Name.Name, s.Name.Name)
			}
		case *ast.ValueSpec:
			// Trailing comments document a spec only inside grouped blocks
			// (the iota idiom); a standalone declaration needs a leading doc.
			if d.Doc != nil || s.Doc != nil || (d.Lparen.IsValid() && s.Comment != nil) {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					p.Reportf(name.Pos(), "exported %s %s is missing a doc comment (document the spec or the enclosing block)", strings.ToLower(d.Tok.String()), name.Name)
				}
			}
		}
	}
}

// exportedRecv reports whether a receiver names an exported type.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.IndexExpr:
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		case *ast.Ident:
			return e.IsExported()
		default:
			return false
		}
	}
}

// docStartsWith reports whether a doc comment's first word is the symbol
// name, optionally allowing a leading article ("A Foo ..." for types).
// Directive-only comments (//go:..., //gpuvet:...) never satisfy it.
func docStartsWith(text, name string, allowArticle bool) bool {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return false
	}
	if allowArticle && len(fields) > 1 {
		switch fields[0] {
		case "A", "An", "The":
			fields = fields[1:]
		}
	}
	// "Deprecated:" paragraphs and quoted names still count as starting
	// with the symbol.
	return strings.TrimRight(fields[0], ":,.") == name ||
		strings.Trim(fields[0], "\"'`") == name
}
