// Command gpuvet runs the repository's static-analysis suite: eleven
// stdlib-only checks enforcing the invariants the reproduction's
// fidelity depends on (deterministic sim.Time clocks, map serialization
// and telemetry events, end-to-end context threading, msm_kgsl.h counter
// constants, float-comparison and mutex hygiene, ioctl size consistency,
// the typed error taxonomy, the hot-path allocation budget, and godoc on
// the documented surface). -list prints them in suite order.
//
// Usage:
//
//	gpuvet [-tests] [-list] [-sarif file] [-baseline file]
//	       [-write-baseline file] [-waivers file] [-hotalloc-budget file]
//	       [packages]
//
// Packages default to ./... (the whole module). Findings print as
// file:line:col: [check] message and make the command exit nonzero.
//
//   - -sarif also renders the findings as a SARIF 2.1.0 log for CI
//     upload and code-scanning consumers.
//   - -baseline only fails on findings absent from the committed
//     gpuvet-baseline.json; -write-baseline regenerates that file from
//     the current findings.
//   - -waivers checks the //gpuvet:ignore directive counts against the
//     committed gpuvet-waivers.json ledger, failing when waivers grow
//     (or shrink) without a matching ledger edit.
//   - -hotalloc-budget names the per-function allocation budget file;
//     it defaults to gpuvet-hotalloc.json at the module root and the
//     hotalloc analyzer is skipped when the file does not exist.
//
// Suppress an intentional finding with a comment on or above the line:
//
//	//gpuvet:ignore simtime -- measuring attacker-side wall-clock cost
//
// and record it in the waiver ledger.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gpuleak/internal/analysis"
)

func main() {
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	list := flag.Bool("list", false, "list available checks and exit")
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	baselinePath := flag.String("baseline", "", "only fail on findings absent from this gpuvet-baseline.json")
	writeBaseline := flag.String("write-baseline", "", "write current findings as a fresh baseline file and exit 0")
	waiversPath := flag.String("waivers", "", "check //gpuvet:ignore counts against this gpuvet-waivers.json ledger")
	hotallocPath := flag.String("hotalloc-budget", "", "hot-path allocation budget file (default: gpuvet-hotalloc.json at the module root, skipped if absent)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gpuvet [flags] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the repo's invariant checks; packages default to ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.DefaultAnalyzers()
	if *list {
		fmt.Printf("%-13s %-15s %-8s %s\n", "CHECK", "CATEGORY", "SEVERITY", "DOC")
		for _, a := range analyzers {
			fmt.Printf("%-13s %-15s %-8s %s\n", a.Name, a.Category, a.Severity, a.Doc)
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
	loader.IncludeTests = *tests

	cfg := &analysis.Config{ModuleRoot: loader.ModuleRoot}
	budgetFile := *hotallocPath
	if budgetFile == "" {
		candidate := filepath.Join(loader.ModuleRoot, "gpuvet-hotalloc.json")
		if _, err := os.Stat(candidate); err == nil {
			budgetFile = candidate
		}
	}
	if budgetFile != "" {
		cfg.HotAlloc, err = analysis.LoadHotAllocBudget(budgetFile)
		if err != nil {
			fatal(err)
		}
	}

	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	diags := analysis.RunConfig(cfg, pkgs, analyzers)

	if *writeBaseline != "" {
		f, err := os.Create(*writeBaseline)
		if err != nil {
			fatal(err)
		}
		if err := analysis.WriteBaseline(f, loader.ModuleRoot, diags); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gpuvet: wrote %d finding(s) to baseline %s\n", len(diags), *writeBaseline)
		return
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fatal(err)
		}
		if err := analysis.WriteSARIF(f, loader.ModuleRoot, analyzers, diags); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	gating := diags
	if *baselinePath != "" {
		base, err := analysis.LoadBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
		var absorbed []analysis.Diagnostic
		gating, absorbed = base.Filter(loader.ModuleRoot, diags)
		if len(absorbed) > 0 {
			fmt.Fprintf(os.Stderr, "gpuvet: %d baseline finding(s) absorbed by %s\n", len(absorbed), *baselinePath)
		}
	}
	for _, d := range gating {
		fmt.Println(d)
	}

	failed := len(gating) > 0
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
		fmt.Fprintf(os.Stderr, "gpuvet: %d finding(s) in %d package(s)\n", len(gating), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpuvet:", err)
	os.Exit(2)
}
