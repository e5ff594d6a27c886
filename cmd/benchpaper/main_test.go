package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunJSONReport pins the gpuleak-bench/v1 report benchcmp and the
// metric pin read: the schema tag, the seed the run used, no failures,
// and the experiment's metrics.
func TestRunJSONReport(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-json", "-seed", "7", "-run", "fig16", "-workers", "1"}, &stdout); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not a report: %v\n%s", err, stdout.String())
	}
	if rep.Schema != "gpuleak-bench/v1" || rep.Seed != 7 || !rep.Quick || rep.Failures != 0 {
		t.Fatalf("report header = schema %q seed %d quick %v failures %d, want gpuleak-bench/v1, 7, true, 0",
			rep.Schema, rep.Seed, rep.Quick, rep.Failures)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "fig16" {
		t.Fatalf("experiments = %+v, want fig16 alone", rep.Experiments)
	}
	if _, ok := rep.Experiments[0].Metrics["interval_spread_ratio"]; !ok {
		t.Errorf("fig16 metrics lack interval_spread_ratio: %v", rep.Experiments[0].Metrics)
	}
}

// TestRunMetricsTable pins -metrics: the experiment's table, then every
// metric on a line of its own.
func TestRunMetricsTable(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-metrics", "-run", "fig16"}, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 16", "volunteer-1", "  metric interval_spread_ratio"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunUnknownExperiment pins that an unknown -run ID fails before
// anything runs.
func TestRunUnknownExperiment(t *testing.T) {
	var stdout bytes.Buffer
	err := run(context.Background(), []string{"-run", "fig99"}, &stdout)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99"`) {
		t.Fatalf("run -run fig99 = %v, want an unknown-experiment error", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown experiment printed output:\n%s", stdout.String())
	}
}
