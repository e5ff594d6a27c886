// Command benchpaper regenerates every table and figure of the paper's
// evaluation on the simulated stack and prints the results as tables —
// the data behind EXPERIMENTS.md. With -json it instead emits a
// machine-readable report (wall time, per-experiment seconds, headline
// metrics) suitable for BENCH_*.json perf-trajectory tracking in CI.
//
// Usage:
//
//	benchpaper                     # every experiment, quick scale
//	benchpaper -full               # paper-scale trial counts (slow)
//	benchpaper -run fig17          # a single experiment
//	benchpaper -workers 8          # fan experiments and trials across 8 workers
//	benchpaper -json > bench.json  # machine-readable report
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"gpuleak/internal/exp"
	"gpuleak/internal/obs"
	"gpuleak/internal/parallel"
)

// report is the -json output. The schema field lets trajectory tooling
// reject incompatible files instead of misreading them.
type report struct {
	Schema      string             `json:"schema"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Workers     int                `json:"workers"`
	Quick       bool               `json:"quick"`
	Seed        int64              `json:"seed"`
	WallSeconds float64            `json:"wall_seconds"`
	Failures    int                `json:"failures"`
	Experiments []experimentReport `json:"experiments"`
	// Telemetry is the metrics-registry snapshot of the run (engine.*,
	// parallel.*, kgsl.*, sampler.*), present when -telemetry is given.
	Telemetry map[string]float64 `json:"telemetry,omitempty"`
}

type experimentReport struct {
	ID      string             `json:"id"`
	Paper   string             `json:"paper"`
	Seconds float64            `json:"seconds"`
	Error   string             `json:"error,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchpaper: ")
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the experiments the flags in args select and prints their
// tables, or the -json report, to stdout. It fails on an unknown
// experiment ID, when any experiment failed, and when ctx ends.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchpaper", flag.ExitOnError)
	full := fs.Bool("full", false, "paper-scale trial counts (slow)")
	runID := fs.String("run", "", "run a single experiment by ID (e.g. fig17, table2)")
	seed := fs.Int64("seed", 20260705, "experiment seed")
	listOnly := fs.Bool("list", false, "list experiment IDs and exit")
	metrics := fs.Bool("metrics", false, "also print raw metrics")
	markdown := fs.Bool("md", false, "emit GitHub-flavored markdown tables")
	workers := fs.Int("workers", 0, "worker pool size (1 = serial, 0 = one per CPU); results are identical at any value")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report on stdout instead of tables")
	var obsFlags obs.Flags
	obsFlags.Register(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError: a bad flag exits with the usage

	if *listOnly {
		for _, e := range exp.All {
			fmt.Fprintf(stdout, "%-22s %s\n", e.ID, e.Paper)
		}
		return nil
	}

	opts := exp.Options{Quick: !*full, Seed: *seed, Workers: *workers, Ctx: ctx}
	todo := exp.All
	if *runID != "" {
		e, ok := exp.ByID(*runID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *runID)
		}
		todo = []exp.Experiment{e}
	}

	stopProfiles, err := obsFlags.StartProfiles()
	if err != nil {
		return err
	}
	tracer := obsFlags.Tracer()
	if tracer != nil {
		parallel.ObserveWith(tracer.Metrics())
	}

	// Experiments are independent, so the suite itself fans out across the
	// pool on top of each experiment's internal parallelism; results are
	// collected into index-addressed slots and printed in registry order,
	// so the output is identical at any worker count.
	// Per-experiment telemetry tracks are created in registry order before
	// the fan-out so the merged stream is scheduling-independent.
	var expTracers []*obs.Tracer
	if tracer != nil {
		expTracers = make([]*obs.Tracer, len(todo))
		for i := range expTracers {
			expTracers[i] = tracer.Child("exp/" + todo[i].ID)
		}
	}

	wallStart := time.Now()
	results := make([]*exp.Result, len(todo))
	reports := make([]experimentReport, len(todo))
	if err := parallel.ForEachCtx(ctx, *workers, len(todo), func(i int) error {
		start := time.Now()
		o := opts
		if expTracers != nil {
			o.Obs = expTracers[i]
		}
		r, err := todo[i].Run(o)
		reports[i] = experimentReport{ID: todo[i].ID, Paper: todo[i].Paper, Seconds: time.Since(start).Seconds()}
		if err != nil {
			reports[i].Error = err.Error()
			return nil
		}
		results[i] = r
		reports[i].Metrics = r.Metrics
		return nil
	}); err != nil {
		return err
	}
	wall := time.Since(wallStart).Seconds()

	failures := 0
	for i := range reports {
		if reports[i].Error != "" {
			failures++
			if !*jsonOut {
				log.Printf("%s FAILED: %v", reports[i].ID, reports[i].Error)
			}
		}
	}

	if *jsonOut {
		rep := report{
			Schema:      "gpuleak-bench/v1",
			GoVersion:   runtime.Version(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Workers:     *workers,
			Quick:       !*full,
			Seed:        *seed,
			WallSeconds: wall,
			Failures:    failures,
			Experiments: reports,
			Telemetry:   tracer.Metrics().Snapshot(),
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		for i, e := range todo {
			r := results[i]
			if r == nil {
				continue
			}
			if *markdown {
				fmt.Fprintf(stdout, "\n%s", r.Table.Markdown())
				fmt.Fprintf(stdout, "\n*Paper: %s.*\n", e.Paper)
			} else {
				fmt.Fprintf(stdout, "\n%s", r.Table.String())
				fmt.Fprintf(stdout, "[paper: %s]  (%.1fs)\n", e.Paper, reports[i].Seconds)
			}
			if *metrics {
				keys := make([]string, 0, len(r.Metrics))
				for k := range r.Metrics {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(stdout, "  metric %-32s %.4f\n", k, r.Metrics[k])
				}
			}
		}
	}
	if err := finish(&obsFlags, tracer, stopProfiles, *jsonOut); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d experiments failed", failures, len(todo))
	}
	return nil
}

// finish writes the telemetry stream and profile dumps before exit.
func finish(fl *obs.Flags, tracer *obs.Tracer, stopProfiles func() error, quiet bool) error {
	if tracer != nil {
		if err := fl.Write(tracer); err != nil {
			return fmt.Errorf("writing telemetry: %w", err)
		}
		if !quiet {
			log.Printf("wrote telemetry to %s (%d events)", fl.Path, tracer.Len())
		}
	}
	if err := stopProfiles(); err != nil {
		return fmt.Errorf("writing profiles: %w", err)
	}
	return nil
}
