package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureStd is the stdlib source importer, with its file set, that
// every fixture's loader shares: type-checking the standard library from
// source is most of a fixture's cost, and it is the same for every
// fixture. The first loadFixture sets it; fixture tests run serially.
var fixtureStd struct {
	fset *token.FileSet
	imp  types.Importer
}

// loadFixture type-checks one testdata directory under an explicit import
// path (so path-scoped analyzers apply). A fresh loader per fixture keeps
// the loader's per-path memoization from colliding with the real module
// packages of the same import path; only the stdlib importer is shared.
func loadFixture(t *testing.T, rel, pkgPath string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if fixtureStd.imp == nil {
		fixtureStd.fset, fixtureStd.imp = l.Fset, l.std
	}
	l.Fset, l.std = fixtureStd.fset, fixtureStd.imp
	dir, err := filepath.Abs(filepath.Join("testdata", rel))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.load(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	return pkg
}

// fixtureWants collects "file.go:line" keys for every line carrying a
// trailing "// WANT" marker in the fixture directory.
func fixtureWants(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	wants := map[string]bool{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "// WANT") {
				wants[fmt.Sprintf("%s:%d", e.Name(), i+1)] = true
			}
		}
	}
	return wants
}

// checkFixture asserts the analyzer reports on exactly the WANT-marked
// lines of the fixture: seeded violations are caught, fixed snippets and
// suppressed lines stay silent.
func checkFixture(t *testing.T, a *Analyzer, rel, pkgPath string) {
	t.Helper()
	if a.Applies != nil && !a.Applies(pkgPath) {
		t.Fatalf("%s does not apply to fixture path %s", a.Name, pkgPath)
	}
	pkg := loadFixture(t, rel, pkgPath)
	diags := Run([]*Package{pkg}, []*Analyzer{a})
	got := map[string]bool{}
	for _, d := range diags {
		if d.Check != a.Name {
			t.Errorf("diagnostic from unexpected check %q: %s", d.Check, d)
		}
		got[fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)] = true
	}
	want := fixtureWants(t, filepath.Join("testdata", rel))
	for k := range want {
		if !got[k] {
			t.Errorf("%s/%s: expected a %s finding, got none", rel, k, a.Name)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s/%s: unexpected %s finding", rel, k, a.Name)
		}
	}
}

func TestSimTimeFixtures(t *testing.T) {
	checkFixture(t, SimTime, "simtime/bad", "gpuleak/internal/stbad")
	checkFixture(t, SimTime, "simtime/good", "gpuleak/internal/stgood")
}

func TestSimTimeScope(t *testing.T) {
	if SimTime.Applies("gpuleak/cmd/benchpaper") {
		t.Error("simtime must not apply outside internal/ (benchmarks measure real time)")
	}
	if !SimTime.Applies("gpuleak/internal/exp") {
		t.Error("simtime must apply to internal/ packages")
	}
}

func TestFloatEqFixtures(t *testing.T) {
	// The fixture paths reuse the real distance-math package paths so the
	// scope filter admits them.
	checkFixture(t, FloatEq, "floateq/bad", "gpuleak/internal/attack")
	checkFixture(t, FloatEq, "floateq/good", "gpuleak/internal/stats")
}

func TestFloatEqScope(t *testing.T) {
	if FloatEq.Applies("gpuleak/internal/trace") {
		t.Error("floateq is scoped to the distance-math packages only")
	}
}

func TestLockCheckFixtures(t *testing.T) {
	checkFixture(t, LockCheck, "lockcheck/bad", "gpuleak/internal/lckbad")
	checkFixture(t, LockCheck, "lockcheck/good", "gpuleak/internal/lckgood")
}

func TestObsEventFixtures(t *testing.T) {
	checkFixture(t, ObsEvent, "obsevent/bad", "gpuleak/internal/oebad")
	checkFixture(t, ObsEvent, "obsevent/good", "gpuleak/internal/oegood")
}

func TestObsEventScope(t *testing.T) {
	if ObsEvent.Applies("gpuleak/internal/obs") {
		t.Error("obsevent must not apply to the obs package itself (stream parsing converts names)")
	}
	if !ObsEvent.Applies("gpuleak/internal/attack") {
		t.Error("obsevent must apply to instrumented internal/ packages")
	}
	if ObsEvent.Applies("gpuleak/cmd/attackd") {
		t.Error("obsevent is scoped to internal/ like the other simulation invariants")
	}
}

func TestDocCheckFixtures(t *testing.T) {
	// The fixture paths reuse real documented-surface package paths so the
	// scope filter admits them.
	checkFixture(t, DocCheck, "doccheck/bad", "gpuleak/internal/serve")
	checkFixture(t, DocCheck, "doccheck/good", "gpuleak/internal/fault")
}

func TestCtxFlowFixtures(t *testing.T) {
	checkFixture(t, CtxFlow, "ctxflow/bad", "gpuleak/internal/cfbad")
	checkFixture(t, CtxFlow, "ctxflow/good", "gpuleak/internal/cfgood")
}

func TestCtxFlowScope(t *testing.T) {
	if CtxFlow.Applies("gpuleak/cmd/gpuleakd") {
		t.Error("ctxflow must not apply outside internal/ (main functions own the root context)")
	}
	if !CtxFlow.Applies("gpuleak/internal/serve") {
		t.Error("ctxflow must apply to internal/ packages")
	}
}

func TestDetMapFixtures(t *testing.T) {
	checkFixture(t, DetMap, "detmap/bad", "gpuleak/internal/dmbad")
	checkFixture(t, DetMap, "detmap/good", "gpuleak/internal/dmgood")
}

func TestErrTaxonomyFixtures(t *testing.T) {
	// The fixture path reuses the facade's import path so the
	// errors.go-placement rule applies.
	checkFixture(t, ErrTaxonomy, "errtaxonomy/bad", "gpuleak")
	checkFixture(t, ErrTaxonomy, "errtaxonomy/good", "gpuleak")
}

func TestDocCheckScope(t *testing.T) {
	if !DocCheck.Applies("gpuleak") {
		t.Error("doccheck must apply to the facade package")
	}
	if DocCheck.Applies("gpuleak/internal/attack") {
		t.Error("doccheck is scoped to the documented surface, not every internal package")
	}
	if DocCheck.Applies("gpuleak/cmd/attackd") {
		t.Error("doccheck must not apply to commands (package main has no API surface)")
	}
}
