// Package analysis is a stdlib-only static-analysis driver enforcing this
// repository's simulation and KGSL invariants. It loads every package of
// the module with go/parser + go/types (no golang.org/x/tools dependency:
// the build environment is offline) and runs repo-specific checks over
// the typed syntax trees:
//
//	simtime      - wall-clock time.* calls are forbidden in internal/
//	ctxflow      - context.Context must thread end-to-end: no
//	               Background/TODO outside tests and documented legacy
//	               wrappers; context holders must call *Context variants
//	detmap       - map iteration feeding ordered output must sort first
//	countergroup - counter group/countable IDs must use adreno constants
//	floateq      - no ==/!= on floats in classifier distance math
//	lockcheck    - mutex-guarded struct fields accessed without locking
//	ioctlsize    - iowr(nr, size) sizes must match the marshalled structs
//	obsevent     - obs event names must be package-level registrations;
//	               Emit/Start timestamps must never derive from the wall clock
//	errtaxonomy  - error identity flows through errors.Is/As, never
//	               string matching; the facade taxonomy lives in errors.go
//	hotalloc     - hot-path functions stay within the committed
//	               escape-site budget (go build -gcflags=-m)
//	doccheck     - exported symbols on the documented surface (facade,
//	               serve, obs, fault) must carry godoc comments
//
// The checks form one ordered suite (DefaultAnalyzers) whose metadata the
// driver shares with the SARIF exporter, the baseline filter and the
// waiver ledger.
// A finding can be suppressed with a trailing or preceding comment of the
// form
//
//	//gpuvet:ignore check1,check2 -- justification
//
// naming the checks to silence (no names silences all checks on that
// line); every directive must be accounted for in the committed
// gpuvet-waivers.json ledger. cmd/gpuvet is the command-line front end.
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
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// ignores maps filename -> line -> checks suppressed on that line
	// ("" suppresses every check).
	ignores map[string]map[int][]string
}

// Analyzer is one named check. The suite lists each one once, so the
// driver, the -list output, the SARIF rule table and the waiver ledger
// all share one source of metadata.
type Analyzer struct {
	Name string
	Doc  string
	// Category groups checks for reporting: "determinism",
	// "driver-fidelity", "taxonomy", "hygiene", "performance" or "docs".
	Category string
	// Severity maps onto the SARIF level: "error" or "warning".
	Severity string
	// Applies filters by package import path; nil runs everywhere.
	Applies func(pkgPath string) bool
	Run     func(*Pass)
}

// Config carries driver-level inputs that individual analyzers need but
// that do not belong to any one package: the module root for analyzers
// that shell out to the go tool, and the hot-path allocation budget.
// A nil *Config disables the analyzers that require one (hotalloc).
type Config struct {
	// ModuleRoot is the directory holding go.mod; commands run from here.
	ModuleRoot string
	// HotAlloc is the parsed per-function allocation budget
	// (gpuvet-hotalloc.json). Nil disables the hotalloc analyzer.
	HotAlloc *HotAllocBudget
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet
	// Config is the driver configuration; nil outside RunConfig.
	Config *Config

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

// Run applies the analyzers to the packages with no driver configuration
// (analyzers needing one, like hotalloc, are skipped). Findings come back
// in deterministic (position, check) order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunConfig(nil, pkgs, analyzers)
}

// RunConfig is Run with a driver configuration for analyzers that need
// module-level inputs (hotalloc's budget, the module root).
func RunConfig(cfg *Config, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Fset: pkg.Fset, Config: cfg, diags: &diags})
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
