package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport writes a gpuleak-bench/v1 report with one experiment and
// returns its path.
func writeReport(t *testing.T, name string, wall float64, failures int) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"schema": "gpuleak-bench/v1", "quick": true, "seed": 1,
		"wall_seconds": wall, "failures": failures,
		"experiments": []map[string]any{{"id": "fig17", "seconds": wall}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunExitStatus pins what benchcmp fails on: a wall time past
// -max-regress and a rise in experiment failures are out of tolerance
// (exit 1); a slower run inside the factor passes; a missing file or a
// missing argument is a usage or load error (exit 2), not a regression.
func TestRunExitStatus(t *testing.T) {
	base := writeReport(t, "base.json", 2, 0)
	cases := []struct {
		name string
		args []string
		exit int
		out  string
	}{
		{"within", []string{base, writeReport(t, "ok.json", 2.5, 0)}, 0, "within tolerance"},
		{"regressed", []string{base, writeReport(t, "slow.json", 3.2, 0)}, 1, "exceeds -max-regress 1.50"},
		{"looser bound", []string{"-max-regress", "2", base, writeReport(t, "slow2.json", 3.2, 0)}, 0, "within tolerance"},
		{"more failures", []string{base, writeReport(t, "fail.json", 1, 1)}, 1, "1 experiment failures (baseline had 0)"},
		{"missing file", []string{base, filepath.Join(t.TempDir(), "absent.json")}, 2, ""},
		{"one file", []string{base}, 2, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if got := exitCode(err); got != c.exit {
				t.Fatalf("exit %d (%v), want %d\n%s", got, err, c.exit, out.String())
			}
			if !strings.Contains(out.String(), c.out) {
				t.Errorf("output lacks %q:\n%s", c.out, out.String())
			}
		})
	}
}
