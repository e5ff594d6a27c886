// Command gpuvet runs the repository's static-analysis suite: eight
// stdlib-only checks enforcing the invariants the reproduction's
// fidelity depends on (deterministic sim.Time clocks, map serialization
// and telemetry events, end-to-end context threading, float-comparison
// and mutex hygiene, the typed error taxonomy, and godoc on the
// documented surface) over the module's production (non-test) files.
// -list prints them in suite order.
//
// Usage:
//
//	gpuvet [-list] [-waivers file] [packages]
//
// Packages default to ./... (the whole module). Findings print as
// file:line:col: [check] message, and any finding makes the command
// exit nonzero. -waivers checks the //gpuvet:ignore directive counts
// against the committed gpuvet-waivers.json ledger, failing when waivers
// grow (or shrink) without a matching ledger edit.
//
// Suppress an intentional finding with a comment on or above the line:
//
//	//gpuvet:ignore lockcheck -- held by caller (Get locks sh.mu)
//
// and record it in the waiver ledger.
package main

import (
	"flag"
	"fmt"
	"os"

	"gpuleak/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list available checks and exit")
	waiversPath := flag.String("waivers", "", "check //gpuvet:ignore counts against this gpuvet-waivers.json ledger")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gpuvet [flags] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the repo's invariant checks; packages default to ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.DefaultAnalyzers()
	if *list {
		fmt.Printf("%-13s %-12s %s\n", "CHECK", "CATEGORY", "DOC")
		for _, a := range analyzers {
			fmt.Printf("%-13s %-12s %s\n", a.Name, a.Category, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	diags := analysis.Run(pkgs, analyzers)

	for _, d := range diags {
		fmt.Println(d)
	}

	failed := len(diags) > 0
	if *waiversPath != "" {
		ledger, err := analysis.LoadWaiverLedger(*waiversPath)
		if err != nil {
			fatal(err)
		}
		counts, err := analysis.CountWaivers(loader.ModuleRoot)
		if err != nil {
			fatal(err)
		}
		for _, problem := range ledger.Check(counts) {
			fmt.Fprintf(os.Stderr, "gpuvet: waiver ledger: %s\n", problem)
			failed = true
		}
	}

	if failed {
		fmt.Fprintf(os.Stderr, "gpuvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpuvet:", err)
	os.Exit(2)
}
