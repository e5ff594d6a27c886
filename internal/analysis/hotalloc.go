package analysis

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// HotAlloc is the hot-path allocation regression gate (ROADMAP open item
// 2). It shells out to `go build -gcflags=-m` for each package named in
// the committed budget file, parses the compiler's escape-analysis
// diagnostics, and counts heap-allocation sites ("escapes to heap" /
// "moved to heap") inside each budgeted function — the sampler tick,
// delta segmentation and centroid-classify path. A function whose site
// count drifts from its committed budget fails the build in either
// direction: above budget is an allocation regression on the hot path,
// below budget is a stale ledger that must be ratcheted down so the win
// cannot silently evaporate later.
//
// Escape sites are a static proxy for per-tick allocation: sites on
// error paths count too, which is intentional — the budget records the
// function's complete allocation surface, and any new site (hot or cold)
// must be justified by editing gpuvet-hotalloc.json in the same change.
var HotAlloc = &Analyzer{
	Name:     "hotalloc",
	Category: "performance",
	Severity: "error",
	Doc:      "hot-path functions must stay within the committed escape-site budget (gpuvet-hotalloc.json, via go build -gcflags=-m)",
	Run:      runHotAlloc,
}

// HotAllocBudget is the parsed gpuvet-hotalloc.json.
type HotAllocBudget struct {
	Schema string `json:"schema"`
	// Note is free-form documentation carried in the file.
	Note    string          `json:"note,omitempty"`
	Budgets []HotAllocEntry `json:"budgets"`
}

// HotAllocEntry budgets one function.
type HotAllocEntry struct {
	// Package is the module-relative package directory, e.g.
	// "internal/attack".
	Package string `json:"package"`
	// Function is the declaration name as "Name", "(T).Name" or
	// "(*T).Name".
	Function string `json:"function"`
	// Allocs is the exact number of heap-allocation sites the compiler's
	// escape analysis may report inside the function.
	Allocs int `json:"allocs"`
	// Why documents what the remaining sites are.
	Why string `json:"why,omitempty"`
}

// HotAllocSchema is the budget file's schema identifier.
const HotAllocSchema = "gpuvet-hotalloc/v1"

// LoadHotAllocBudget reads and validates a budget file.
func LoadHotAllocBudget(path string) (*HotAllocBudget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b HotAllocBudget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("analysis: parsing %s: %w", path, err)
	}
	if b.Schema != HotAllocSchema {
		return nil, fmt.Errorf("analysis: %s has schema %q, want %q", path, b.Schema, HotAllocSchema)
	}
	return &b, nil
}

// escapeLineRe matches one compiler diagnostic: path:line:col: message.
var escapeLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// isAllocDiagnostic reports whether a -m message records a heap
// allocation site (as opposed to inlining notes, leaking-param facts and
// "does not escape" confirmations).
func isAllocDiagnostic(msg string) bool {
	if strings.Contains(msg, "does not escape") {
		return false
	}
	return strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "moved to heap")
}

func runHotAlloc(p *Pass) {
	if p.Config == nil || p.Config.HotAlloc == nil || p.Config.ModuleRoot == "" {
		return
	}
	rel, err := filepath.Rel(p.Config.ModuleRoot, p.Pkg.Dir)
	if err != nil {
		return
	}
	rel = filepath.ToSlash(rel)
	var entries []HotAllocEntry
	for _, e := range p.Config.HotAlloc.Budgets {
		if e.Package == rel {
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 {
		return
	}
	sites, err := escapeSites(p.Config.ModuleRoot, rel)
	if err != nil {
		p.Reportf(p.Pkg.Files[0].Pos(), "hotalloc could not run escape analysis for %s: %v", rel, err)
		return
	}
	// Attribute each site line number to its enclosing declaration.
	counts := map[string]int{}
	decls := map[string]*ast.FuncDecl{}
	eachFuncDecl(p.Pkg, func(file *ast.File, fn *ast.FuncDecl) {
		name := funcDisplayName(fn)
		decls[name] = fn
		start := p.Fset.Position(fn.Pos())
		end := p.Fset.Position(fn.End())
		base := filepath.Base(start.Filename)
		for _, s := range sites {
			if s.file == base && start.Line <= s.line && s.line <= end.Line {
				counts[name]++
			}
		}
	})
	for _, e := range entries {
		fn, ok := decls[e.Function]
		if !ok {
			p.Reportf(p.Pkg.Files[0].Pos(), "hotalloc budget names %s.%s which does not exist: update gpuvet-hotalloc.json", e.Package, e.Function)
			continue
		}
		got := counts[e.Function]
		switch {
		case got > e.Allocs:
			p.Reportf(fn.Pos(), "%s has %d heap-allocation sites, over its hot-path budget of %d: remove the new allocation or justify it by raising the budget in gpuvet-hotalloc.json", e.Function, got, e.Allocs)
		case got < e.Allocs:
			p.Reportf(fn.Pos(), "%s has %d heap-allocation sites but gpuvet-hotalloc.json still budgets %d: ratchet the budget down so the win sticks", e.Function, got, e.Allocs)
		}
	}
}

// site is one heap-allocation diagnostic, located by file base name and
// line (the compiler emits module-root-relative paths; base names are
// unique within a package directory).
type site struct {
	file string
	line int
}

// escapeSites compiles one package with -gcflags=-m and extracts the
// heap-allocation sites inside its directory. The go tool replays
// compiler diagnostics from the build cache, so repeated runs are cheap.
func escapeSites(moduleRoot, relPkg string) ([]site, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "-o", os.DevNull, "./"+relPkg)
	cmd.Dir = moduleRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m ./%s: %v\n%s", relPkg, err, out)
	}
	var sites []site
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := escapeLineRe.FindStringSubmatch(sc.Text())
		if m == nil || !isAllocDiagnostic(m[4]) {
			continue
		}
		// Only sites inside the package directory itself count; -m can
		// mention inlined positions from elsewhere.
		dir := filepath.ToSlash(filepath.Dir(m[1]))
		if dir != relPkg {
			continue
		}
		line, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		sites = append(sites, site{file: filepath.Base(m[1]), line: line})
	}
	return sites, sc.Err()
}
