package analysis

import (
	"strings"
	"testing"
)

// Driver-plane tests: the suite's presentation order and the
// waiver-budget ledger. The fixture tests in checks_test.go cover
// the analyzers themselves.

func TestRegistryCanonicalOrder(t *testing.T) {
	want := []string{
		"simtime", "ctxflow", "detmap", "floateq", "lockcheck",
		"obsevent", "errtaxonomy", "doccheck",
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
