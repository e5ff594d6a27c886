package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuleak/internal/obs"
)

// TestRunWritesTelemetry runs one seeded attack with -telemetry: the
// eavesdrop must match the typed text, and the stream written must be
// non-empty JSONL.
func TestRunWritesTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-seed", "7", "-text", "hunter2", "-telemetry", path}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "exact match  : true") {
		t.Fatalf("attackd output lacks an exact match:\n%s", stdout.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("telemetry does not parse: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("telemetry stream is empty")
	}
}
