package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

// Driver-plane tests: the suite's presentation order, SARIF export and
// the waiver-budget ledger. The fixture tests in checks_test.go cover
// the analyzers themselves.

func fakeDiags() []Diagnostic {
	return []Diagnostic{
		{Pos: token.Position{Filename: "/mod/a.go", Line: 3, Column: 7}, Check: "simtime", Message: "no wall clocks"},
		{Pos: token.Position{Filename: "/mod/b.go", Line: 9, Column: 1}, Check: "detmap", Message: "sort before emit"},
		{Pos: token.Position{Filename: "/mod/b.go", Line: 20, Column: 1}, Check: "detmap", Message: "sort before emit"},
	}
}

func TestRegistryCanonicalOrder(t *testing.T) {
	want := []string{
		"simtime", "ctxflow", "detmap", "countergroup", "floateq", "lockcheck",
		"ioctlsize", "obsevent", "errtaxonomy", "doccheck",
	}
	all := DefaultAnalyzers()
	if len(all) != len(want) {
		t.Fatalf("suite holds %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Category == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing metadata: doc=%q category=%q", a.Name, a.Doc, a.Category)
		}
		if a.Severity != "error" && a.Severity != "warning" {
			t.Errorf("analyzer %q has severity %q, want error or warning", a.Name, a.Severity)
		}
	}
}

func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "/mod", DefaultAnalyzers(), fakeDiags()); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("emitted SARIF does not parse: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "gpuvet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(suite) {
		t.Errorf("rule table has %d rules, want %d", len(run.Tool.Driver.Rules), len(suite))
	}
	if len(run.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "simtime" {
		t.Errorf("first result ruleId = %q", first.RuleID)
	}
	if run.Tool.Driver.Rules[first.RuleIndex].ID != "simtime" {
		t.Errorf("ruleIndex %d does not point at the simtime rule", first.RuleIndex)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "a.go" || loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("artifact location = %q base %q, want module-relative a.go under %%SRCROOT%%", loc.ArtifactLocation.URI, loc.ArtifactLocation.URIBaseID)
	}
	if loc.Region.StartLine != 3 {
		t.Errorf("startLine = %d, want 3", loc.Region.StartLine)
	}
}

func TestWaiverLedgerCheck(t *testing.T) {
	ledger := &WaiverLedger{
		Schema:  WaiverSchema,
		Budgets: map[string]int{"simtime": 2},
		Entries: []WaiverEntry{
			{Check: "simtime", File: "x.go", Why: "a"},
			{Check: "simtime", File: "y.go", Why: "b"},
		},
	}
	if problems := ledger.Check(map[string]int{"simtime": 2}); len(problems) != 0 {
		t.Errorf("exact ledger reported problems: %v", problems)
	}
	// Growth without a ledger entry fails.
	problems := ledger.Check(map[string]int{"simtime": 3})
	if len(problems) != 1 || !strings.Contains(problems[0], "budgets 2") {
		t.Errorf("over-budget drift not caught: %v", problems)
	}
	// Removing a directive without ratcheting the ledger fails too.
	problems = ledger.Check(map[string]int{"simtime": 1})
	if len(problems) != 1 || !strings.Contains(problems[0], "ratchet") {
		t.Errorf("stale budget not caught: %v", problems)
	}
	// A check with directives but no budget at all fails.
	problems = ledger.Check(map[string]int{"simtime": 2, "lockcheck": 1})
	if len(problems) != 1 || !strings.Contains(problems[0], `"lockcheck"`) {
		t.Errorf("unbudgeted check not caught: %v", problems)
	}
	// Budgets must be documented: entries and budget tally per check.
	undocumented := &WaiverLedger{
		Schema:  WaiverSchema,
		Budgets: map[string]int{"simtime": 2},
		Entries: []WaiverEntry{{Check: "simtime", File: "x.go", Why: "a"}},
	}
	problems = undocumented.Check(map[string]int{"simtime": 2})
	if len(problems) != 1 || !strings.Contains(problems[0], "entries") {
		t.Errorf("entry/budget mismatch not caught: %v", problems)
	}
}
