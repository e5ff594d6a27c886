// Command bench is gpuleak's benchmark: three named workloads, a warm
// library eavesdrop and two serving mixes, driven from outside the system
// through its public entry points — the facade and the victim and attack
// packages for the library path, an in-process serve.Server behind a
// loopback HTTP server for the serving path, attack.CollectContext for
// training. An untraced run reports the end-to-end metrics BENCHMARK.json
// names; a traced run (-trace 1) reports the per-layer ledger. Either
// way the run checks its outputs and prints, as its last line, one JSON
// object with the verdict and the metrics.
//
// Build and run it from the root of the repository with
//
//	bash bench/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-trace-out file]
//
// Without -workload every workload runs in its own child process, so
// heap, GC state and RSS never carry over from one to the next. See
// README.md for the workloads, the metrics and what they should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// defaultSeed generates every input unless -seed says otherwise; the
// pinned outputs of expected.json are at this seed.
const defaultSeed = 20260705

func main() {
	name := flag.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase, in seconds on the reference box")
	traceFlag := flag.Int("trace", 0, "1: a traced run, reporting the per-layer ledger instead of the end-to-end metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the spans to this file as Chrome trace-event JSON (Perfetto loads it)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, setups: 5}
	if *name == "" {
		os.Exit(runAll(o, *traceOut))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	out, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out.report(os.Stdout)
	if *traceOut != "" && out.spans != nil {
		if err := writeChrome(*traceOut, out.spans.chrome(w.name, 1)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(out.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encoding the summary: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.correct() {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own and prints
// their reports, then one table of every end-to-end metric. A traced
// run also runs each workload untraced, to report the tracing overhead,
// and merges the children's spans into one trace file. It returns the
// exit status.
func runAll(o options, traceOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	total := summary{Correct: true, Metrics: map[string]metricValue{}}
	// child runs one workload and folds its summary into total.
	child := func(w *workload, trace int, part string) (summary, bool) {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if part != "" {
			args = append(args, "-trace-out", part)
		}
		s, err := runChild(exe, args)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			total.Correct = false
			return s, false
		}
		total.Correct = total.Correct && s.Correct
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		for m, v := range s.Metrics {
			total.Metrics[w.name+"/"+m] = v
		}
		return s, true
	}
	var events []chromeEvent
	for k, w := range workloads {
		untraced, ok := child(w, 0, "")
		if !ok || !o.trace {
			continue
		}
		part := ""
		if traceOut != "" {
			part = traceOut + "." + w.name
		}
		traced, ok := child(w, 1, part)
		if !ok {
			continue
		}
		before, after := untraced.Metrics["latency_p50_ms"].Value, traced.Metrics["traced.latency_p50_ms"].Value
		fmt.Printf("tracing overhead on %s: latency_p50_ms %.4f untraced, %.4f traced (%+.1f%%)\n",
			w.name, before, after, 100*(after/before-1))
		if part == "" {
			continue
		}
		evs, err := readChrome(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			total.Correct = false
			continue
		}
		os.Remove(part) //nolint:errcheck // a leftover part file is harmless
		for i := range evs {
			evs[i].PID = k + 1
		}
		events = append(events, evs...)
	}
	printTable(total)
	if len(events) > 0 {
		if err := writeChrome(traceOut, events); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			total.Correct = false
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encoding the summary: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, echoes its report, and
// returns the summary it printed last.
func runChild(exe string, args []string) (summary, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	stdout = bytes.TrimRight(stdout, "\n")
	report, last := []byte(nil), stdout
	if i := bytes.LastIndexByte(stdout, '\n'); i >= 0 {
		report, last = stdout[:i+1], stdout[i+1:]
	}
	os.Stdout.Write(report) //nolint:errcheck // best-effort echo
	var s summary
	if err := json.Unmarshal(last, &s); err != nil {
		if runErr != nil {
			return s, runErr
		}
		return s, fmt.Errorf("decoding the summary %q: %w", last, err)
	}
	return s, nil
}

// printTable prints every end-to-end metric, one row each, one column per
// workload.
func printTable(total summary) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s", "metric")
	for _, w := range workloads {
		fmt.Fprintf(&b, " %14s", w.name)
	}
	b.WriteString("\n")
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "%-24s", d.Name+" ("+d.Unit+")")
		for _, w := range workloads {
			fmt.Fprintf(&b, " %14.4f", total.Metrics[w.name+"/"+d.Name].Value)
		}
		b.WriteString("\n")
	}
	fmt.Print(b.String())
}
