// Command benchcmp compares two gpuleak-bench/v1 reports (the -json
// output of benchpaper) and flags wall-clock regressions beyond a
// tolerance factor. CI runs it warn-only against the committed
// BENCH_baseline.json so the perf trajectory is visible on every run
// without shared-runner noise failing builds. The baseline's metrics are
// pinned by go test instead (internal/exp's
// TestQuickMetricsMatchBaseline): with fixed seed and quick settings
// they are deterministic.
//
// Usage:
//
//	benchcmp BENCH_baseline.json bench-new.json
//	benchcmp -max-regress 2.0 old.json new.json
//
// Exit status: 0 when the new report is within tolerance, 1 on a
// wall-clock regression beyond -max-regress or new experiment failures,
// 2 on usage or load errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// report mirrors the benchpaper -json schema; unknown fields are
// ignored so the two commands can evolve independently as long as the
// schema tag matches.
type report struct {
	Schema      string             `json:"schema"`
	GoVersion   string             `json:"go_version"`
	Quick       bool               `json:"quick"`
	Seed        int64              `json:"seed"`
	WallSeconds float64            `json:"wall_seconds"`
	Failures    int                `json:"failures"`
	Experiments []experimentReport `json:"experiments"`
}

type experimentReport struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// errOutOfTolerance reports a new run that regressed past -max-regress
// or failed more experiments than the baseline.
var errOutOfTolerance = errors.New("out of tolerance")

func main() {
	err := run(os.Args[1:], os.Stdout)
	code := exitCode(err)
	if code == 2 {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
	}
	os.Exit(code)
}

// exitCode maps run's error onto the exit status: 0 within tolerance,
// 1 out of tolerance, 2 for a usage or load error.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errOutOfTolerance):
		return 1
	default:
		return 2
	}
}

// run compares the two reports args name and prints the comparison to
// stdout. It returns an error matching errOutOfTolerance when the new
// report regressed; any other error is a usage or load error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	maxRegress := fs.Float64("max-regress", 1.5, "fail when new wall time exceeds baseline by this factor")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: benchcmp [flags] baseline.json new.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return errors.New("want two report files")
	}

	old, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		return err
	}

	if old.Quick != cur.Quick || old.Seed != cur.Seed {
		fmt.Fprintf(stdout, "note: configs differ (quick %v/%v, seed %d/%d); timings are not directly comparable\n",
			old.Quick, cur.Quick, old.Seed, cur.Seed)
	}

	ratio := 0.0
	if old.WallSeconds > 0 {
		ratio = cur.WallSeconds / old.WallSeconds
	}
	fmt.Fprintf(stdout, "wall: %.2fs -> %.2fs (%.2fx baseline, go %s -> %s)\n",
		old.WallSeconds, cur.WallSeconds, ratio, old.GoVersion, cur.GoVersion)

	oldExp := map[string]experimentReport{}
	for _, e := range old.Experiments {
		oldExp[e.ID] = e
	}
	for _, e := range cur.Experiments {
		prev, ok := oldExp[e.ID]
		if !ok {
			fmt.Fprintf(stdout, "  %-22s new experiment (%.2fs)\n", e.ID, e.Seconds)
			continue
		}
		r := 0.0
		if prev.Seconds > 0 {
			r = e.Seconds / prev.Seconds
		}
		fmt.Fprintf(stdout, "  %-22s %6.2fs -> %6.2fs (%.2fx)\n", e.ID, prev.Seconds, e.Seconds, r)
	}

	failed := false
	if cur.Failures > old.Failures {
		fmt.Fprintf(stdout, "FAIL: %d experiment failures (baseline had %d)\n", cur.Failures, old.Failures)
		failed = true
	}
	if old.WallSeconds > 0 && ratio > *maxRegress {
		fmt.Fprintf(stdout, "FAIL: wall time %.2fx baseline exceeds -max-regress %.2f\n", ratio, *maxRegress)
		failed = true
	}
	if failed {
		return errOutOfTolerance
	}
	fmt.Fprintln(stdout, "within tolerance")
	return nil
}

func load(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != "gpuleak-bench/v1" {
		return nil, fmt.Errorf("%s: unsupported schema %q", path, rep.Schema)
	}
	return &rep, nil
}
