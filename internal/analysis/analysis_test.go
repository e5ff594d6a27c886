package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestIgnoreIndex(t *testing.T) {
	src := `package p

func a() {
	_ = 1 //gpuvet:ignore simtime -- trailing, one check
	//gpuvet:ignore floateq,lockcheck -- standalone, two checks
	_ = 2
	//gpuvet:ignore
	_ = 3
	_ = 4
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ign.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{ignores: buildIgnoreIndex(fset, []*ast.File{f})}
	cases := []struct {
		line  int
		check string
		want  bool
	}{
		{4, "simtime", true},
		{4, "floateq", false},
		{6, "floateq", true},
		{6, "lockcheck", true},
		{6, "simtime", false},
		{8, "simtime", true}, // bare ignore silences everything
		{8, "anything", true},
		{9, "simtime", false},
	}
	for _, c := range cases {
		got := pkg.suppressed(token.Position{Filename: "ign.go", Line: c.line}, c.check)
		if got != c.want {
			t.Errorf("line %d check %s: suppressed=%v, want %v", c.line, c.check, got, c.want)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "x.go", Line: 3, Column: 7},
		Check:   "simtime",
		Message: "no wall clocks",
	}
	want := "x.go:3:7: [simtime] no wall clocks"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}

func TestLoaderModuleDiscovery(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if l.ModulePath != "gpuleak" {
		t.Errorf("module path = %q, want gpuleak", l.ModulePath)
	}
	if !strings.HasSuffix(l.ModuleRoot, "repo") && l.ModuleRoot == "" {
		t.Errorf("module root not found: %q", l.ModuleRoot)
	}
}

func TestLoadUnknownPattern(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("no/such/dir/..."); err == nil {
		t.Error("expected an error for a nonexistent pattern")
	}
}

// TestRepoClean is the acceptance gate as a unit test: the production
// tree (non-test files) must carry zero unwaived findings under every
// check in the suite, with an exactly tallied waiver ledger, so a plain
// `go test` catches invariant regressions even when ci.sh is skipped.
func TestRepoClean(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	for _, d := range Run(pkgs, DefaultAnalyzers()) {
		t.Errorf("%s", d)
	}

	ledger, err := LoadWaiverLedger(filepath.Join(l.ModuleRoot, "gpuvet-waivers.json"))
	if err != nil {
		t.Fatalf("loading committed waiver ledger: %v", err)
	}
	counts, err := CountWaivers(l.ModuleRoot)
	if err != nil {
		t.Fatalf("counting //gpuvet:ignore directives: %v", err)
	}
	for _, problem := range ledger.Check(counts) {
		t.Errorf("waiver ledger: %s", problem)
	}
}
