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
	"encoding/json"
	"flag"
	"fmt"
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

	full := flag.Bool("full", false, "paper-scale trial counts (slow)")
	run := flag.String("run", "", "run a single experiment by ID (e.g. fig17, table2)")
	seed := flag.Int64("seed", 20260705, "experiment seed")
	listOnly := flag.Bool("list", false, "list experiment IDs and exit")
	metrics := flag.Bool("metrics", false, "also print raw metrics")
	markdown := flag.Bool("md", false, "emit GitHub-flavored markdown tables")
	workers := flag.Int("workers", 0, "worker pool size (1 = serial, 0 = one per CPU); results are identical at any value")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout instead of tables")
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := obsFlags.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	tracer := obsFlags.Tracer()
	if tracer != nil {
		parallel.ObserveWith(tracer.Metrics())
	}

	if *listOnly {
		for _, e := range exp.All {
			fmt.Printf("%-22s %s\n", e.ID, e.Paper)
		}
		return
	}

	opts := exp.Options{Quick: !*full, Seed: *seed, Workers: *workers}
	todo := exp.All
	if *run != "" {
		e, ok := exp.ByID(*run)
		if !ok {
			log.Fatalf("unknown experiment %q (use -list)", *run)
		}
		todo = []exp.Experiment{e}
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
	parallel.ForEach(*workers, len(todo), func(i int) error {
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
	})
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		finish(&obsFlags, tracer, stopProfiles, *jsonOut)
		if failures > 0 {
			os.Exit(1)
		}
		return
	}

	for i, e := range todo {
		r := results[i]
		if r == nil {
			continue
		}
		if *markdown {
			fmt.Printf("\n%s", r.Table.Markdown())
			fmt.Printf("\n*Paper: %s.*\n", e.Paper)
		} else {
			fmt.Printf("\n%s", r.Table.String())
			fmt.Printf("[paper: %s]  (%.1fs)\n", e.Paper, reports[i].Seconds)
		}
		if *metrics {
			keys := make([]string, 0, len(r.Metrics))
			for k := range r.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("  metric %-32s %.4f\n", k, r.Metrics[k])
			}
		}
	}
	finish(&obsFlags, tracer, stopProfiles, *jsonOut)
	if failures > 0 {
		os.Exit(1)
	}
}

// finish writes the telemetry stream and profile dumps before exit.
func finish(fl *obs.Flags, tracer *obs.Tracer, stopProfiles func() error, quiet bool) {
	if tracer != nil {
		if err := fl.Write(tracer); err != nil {
			log.Fatalf("writing telemetry: %v", err)
		}
		if !quiet {
			log.Printf("wrote telemetry to %s (%d events)", fl.Path, tracer.Len())
		}
	}
	if err := stopProfiles(); err != nil {
		log.Fatalf("writing profiles: %v", err)
	}
}
