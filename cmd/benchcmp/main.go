// Command benchcmp compares two gpuleak-bench/v1 reports (the -json
// output of benchpaper) and flags wall-clock regressions beyond a
// tolerance factor. CI runs it warn-only against the committed
// BENCH_baseline.json so the perf trajectory is visible on every run
// without shared-runner noise failing builds.
//
// Usage:
//
//	benchcmp BENCH_baseline.json bench-new.json
//	benchcmp -max-regress 2.0 old.json new.json
//	benchcmp -metrics-only BENCH_baseline.json bench-new.json
//
// -metrics-only splits the determinism gate from the perf watch: it
// ignores wall time entirely (shared CI runners make timings noisy) and
// fails only on new experiment failures or headline-metric drift, which
// with fixed seed+quick settings are deterministic and therefore
// blocking. Drift is a baseline metric whose value changed or that the
// new report lacks; a metric only the new report has is not drift. CI
// runs -metrics-only as a gate and the plain wall-clock comparison
// warn-only. Every experiment's metrics are sim-time results, so the
// gate compares all of them.
//
// Exit status: 0 when the new report is within tolerance, 1 on a
// wall-clock regression beyond -max-regress (unless -metrics-only), new
// experiment failures, or metric drift under -metrics/-metrics-only;
// 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
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
	ID      string             `json:"id"`
	Seconds float64            `json:"seconds"`
	Error   string             `json:"error,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	maxRegress := flag.Float64("max-regress", 1.5, "fail when new wall time exceeds baseline by this factor")
	checkMetrics := flag.Bool("metrics", false, "also diff headline metrics (same seed+quick runs are deterministic, so drift means a behavior change)")
	metricsOnly := flag.Bool("metrics-only", false, "gate on failures and metric drift only; ignore wall time (implies -metrics)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchcmp [flags] baseline.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	old, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	if old.Quick != cur.Quick || old.Seed != cur.Seed {
		fmt.Printf("note: configs differ (quick %v/%v, seed %d/%d); timings are not directly comparable\n",
			old.Quick, cur.Quick, old.Seed, cur.Seed)
	}

	ratio := 0.0
	if old.WallSeconds > 0 {
		ratio = cur.WallSeconds / old.WallSeconds
	}
	fmt.Printf("wall: %.2fs -> %.2fs (%.2fx baseline, go %s -> %s)\n",
		old.WallSeconds, cur.WallSeconds, ratio, old.GoVersion, cur.GoVersion)

	oldExp := map[string]experimentReport{}
	for _, e := range old.Experiments {
		oldExp[e.ID] = e
	}
	for _, e := range cur.Experiments {
		prev, ok := oldExp[e.ID]
		if !ok {
			fmt.Printf("  %-22s new experiment (%.2fs)\n", e.ID, e.Seconds)
			continue
		}
		r := 0.0
		if prev.Seconds > 0 {
			r = e.Seconds / prev.Seconds
		}
		fmt.Printf("  %-22s %6.2fs -> %6.2fs (%.2fx)\n", e.ID, prev.Seconds, e.Seconds, r)
	}

	failed := false
	if cur.Failures > old.Failures {
		fmt.Printf("FAIL: %d experiment failures (baseline had %d)\n", cur.Failures, old.Failures)
		failed = true
	}
	if !*metricsOnly && old.WallSeconds > 0 && ratio > *maxRegress {
		fmt.Printf("FAIL: wall time %.2fx baseline exceeds -max-regress %.2f\n", ratio, *maxRegress)
		failed = true
	}

	if *checkMetrics || *metricsOnly {
		failed = diffMetrics(old, cur) || failed
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("within tolerance")
}

// diffMetrics reports every baseline headline metric that changed or is
// missing from the new run; a metric only the new run has is not drift.
// With identical seed/quick settings the suite is deterministic, so any
// drift is a behavior change worth reading.
func diffMetrics(old, cur *report) bool {
	curExp := map[string]experimentReport{}
	for _, e := range cur.Experiments {
		curExp[e.ID] = e
	}
	drift := false
	for _, e := range old.Experiments {
		next, ran := curExp[e.ID]
		keys := make([]string, 0, len(e.Metrics))
		for k := range e.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v, had := next.Metrics[k]
			if had && v == e.Metrics[k] {
				continue
			}
			drift = true
			switch {
			case !ran:
				fmt.Printf("METRIC DRIFT: %s/%s %.6f -> experiment missing\n", e.ID, k, e.Metrics[k])
			case !had:
				fmt.Printf("METRIC DRIFT: %s/%s %.6f -> missing\n", e.ID, k, e.Metrics[k])
			default:
				fmt.Printf("METRIC DRIFT: %s/%s %.6f -> %.6f\n", e.ID, k, e.Metrics[k], v)
			}
		}
	}
	return drift
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}
