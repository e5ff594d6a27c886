// Package analysis is a stdlib-only static-analysis driver enforcing this
// repository's simulation invariants. It loads every package of
// the module with go/parser + go/types (no golang.org/x/tools dependency:
// the build environment is offline) and runs repo-specific checks over
// the typed syntax trees:
//
//	simtime      - wall-clock time.* calls are forbidden in internal/
//	ctxflow      - context.Context must thread end-to-end: no
//	               Background/TODO outside tests and documented legacy
//	               wrappers; context holders must call *Context variants
//	detmap       - map iteration feeding ordered output must sort first
//	floateq      - no ==/!= on floats in classifier distance math
//	lockcheck    - mutex-guarded struct fields accessed without locking
//	obsevent     - obs event names must be package-level registrations;
//	               Emit/Start timestamps must never derive from the wall clock
//	errtaxonomy  - error identity flows through errors.Is/As, never
//	               string matching; the facade taxonomy lives in errors.go
//	doccheck     - exported symbols on the documented surface (facade,
//	               serve, obs, fault, defense) must carry godoc comments
//
// A check belongs here only if it catches something no test does; the
// invariants a test already holds (the msm_kgsl.h request codes, the
// Table 1 counter IDs) live in those tests. The checks form one ordered
// suite (DefaultAnalyzers), and every finding is an error. Only
// production files are analyzed: the loader never reads _test.go files.
// A finding can be suppressed with a trailing or preceding comment of the
// form
//
//	//gpuvet:ignore check1,check2 -- justification
//
// naming the checks to silence (no names silences all checks on that
// line); every directive must be accounted for in the committed
// gpuvet-waivers.json ledger. TestRepoClean runs the suite over the
// module and reconciles that ledger:
//
//	go test ./internal/analysis -run TestRepoClean
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// ignores maps filename -> line -> checks suppressed on that line
	// ("" suppresses every check).
	ignores map[string]map[int][]string
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	// Applies filters by package import path; nil runs everywhere.
	Applies func(pkgPath string) bool
	Run     func(*Pass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet

	diags *[]Diagnostic
}

// Reportf records a finding unless a gpuvet:ignore comment suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Pkg.suppressed(position, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf is shorthand for the package's type information.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

func (pkg *Package) suppressed(pos token.Position, check string) bool {
	lines := pkg.ignores[pos.Filename]
	for _, c := range lines[pos.Line] {
		if c == "" || c == check {
			return true
		}
	}
	return false
}

const ignorePrefix = "gpuvet:ignore"

// parseIgnoreDirective decodes one comment as a gpuvet:ignore directive,
// returning the checks it silences ({""} for a bare directive silencing
// everything). The second result is false for ordinary comments. This is
// the single parser shared by the suppression index and the waiver
// ledger, so the two can never disagree about what counts as a waiver.
func parseIgnoreDirective(comment string) ([]string, bool) {
	text := strings.TrimPrefix(strings.TrimPrefix(comment, "//"), "/*")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, ignorePrefix) {
		return nil, false
	}
	text = strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
	// Everything after " -- " is a human justification.
	if i := strings.Index(text, "--"); i >= 0 {
		text = strings.TrimSpace(text[:i])
	}
	if text == "" {
		return []string{""}, true
	}
	var checks []string
	for _, c := range strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' }) {
		checks = append(checks, c)
	}
	return checks, true
}

// buildIgnoreIndex scans comments for gpuvet:ignore directives. A
// directive applies to its own line and the line below it, so it works
// both as a trailing comment and as a standalone line above the finding.
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	idx := map[string]map[int][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checks, ok := parseIgnoreDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				m := idx[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					idx[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], checks...)
				m[pos.Line+1] = append(m[pos.Line+1], checks...)
			}
		}
	}
	return idx
}

// Run applies the analyzers to the packages. Findings come back in
// deterministic (position, check) order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Fset: pkg.Fset, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// isInternalPath reports whether an import path sits under an internal/
// tree — the part of the module where simulation invariants are enforced.
func isInternalPath(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}
