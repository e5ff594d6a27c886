// Command traceview is the defender's forensic lens: it loads a counter
// trace (CSV, as written by attackd -trace: the polling interval, the
// first read and every change point) and optionally a classifier model,
// prints the timeline of counter changes with their classifications, and
// replays Algorithm 1 at the recorded interval to report what an
// attacker holding that model could have recovered. Use it to inspect
// what a given UI interaction leaks.
//
// It also understands the telemetry streams written by attackd/collect/
// benchpaper -telemetry: pass -telemetry to overlay recorded engine
// verdicts on the delta listing (or, without -trace, to print a stream
// summary), and -telemetry-chrome to convert a JSONL stream into a
// Perfetto-loadable Chrome trace file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"gpuleak/internal/attack"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"

	"gpuleak/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceview: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run loads the trace and telemetry the flags in args name and prints
// its views to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("traceview", flag.ExitOnError)
	tracePath := fs.String("trace", "", "counter trace CSV")
	modelPath := fs.String("model", "", "classifier model JSON (optional: adds classifications)")
	deltasOnly := fs.Bool("deltas", false, "print the changes without the table header")
	offline := fs.Bool("offline", false, "use whole-trace segmentation instead of the streaming engine")
	telemetryPath := fs.String("telemetry", "", "telemetry JSONL stream (overlays recorded verdicts; without -trace, prints a summary)")
	telemetryChrome := fs.String("telemetry-chrome", "", "also convert the telemetry stream to a Chrome trace file at this path")
	fs.Parse(args) //nolint:errcheck // ExitOnError: a bad flag exits with the usage

	var telem []obs.Event
	if *telemetryPath != "" {
		tf, err := os.Open(*telemetryPath)
		if err != nil {
			return err
		}
		telem, err = obs.ReadJSONL(tf)
		tf.Close()
		if err != nil {
			return fmt.Errorf("reading telemetry %s: %w", *telemetryPath, err)
		}
		if len(telem) == 0 {
			return fmt.Errorf("telemetry %s is empty", *telemetryPath)
		}
		if *telemetryChrome != "" {
			cf, err := os.Create(*telemetryChrome)
			if err != nil {
				return err
			}
			if err := obs.WriteChromeTrace(cf, telem); err != nil {
				cf.Close()
				return fmt.Errorf("writing %s: %w", *telemetryChrome, err)
			}
			if err := cf.Close(); err != nil {
				return fmt.Errorf("writing %s: %w", *telemetryChrome, err)
			}
			fmt.Fprintf(stdout, "wrote Chrome trace to %s\n", *telemetryChrome)
		}
	}

	if *tracePath == "" {
		if telem != nil {
			summarizeTelemetry(stdout, telem)
			return nil
		}
		fs.Usage()
		return errors.New("nothing to view: give -trace and/or -telemetry")
	}
	tf, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	tr, err := trace.ReadCSV(tf)
	tf.Close()
	if err != nil {
		return err
	}
	ds := tr.Deltas()
	fmt.Fprintf(stdout, "trace: %d reads, the first at %v, interval %v\n", tr.Reads, tr.First.At, tr.Interval)

	var m *attack.Model
	if *modelPath != "" {
		mf, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		m, err = attack.ReadModel(mf)
		mf.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model: %s (%d keys, %d noise signatures)\n", m.Key, len(m.Keys), len(m.Noise))
	}

	// Recorded engine verdicts, indexed by timestamp, overlay the listing:
	// what the attack decided live, next to what this model says now.
	verdicts := map[sim.Time]string{}
	for _, e := range telem {
		if e.Name != "engine.verdict" {
			continue
		}
		s := ""
		for _, f := range e.Fields {
			switch f.Key {
			case "disp":
				s = f.Str + s
			case "rune":
				s += fmt.Sprintf(" %q", f.Str)
			}
		}
		verdicts[e.At] = s
	}

	fmt.Fprintf(stdout, "changes: %d\n\n", len(ds))
	if !*deltasOnly {
		fmt.Fprintln(stdout, "time        prims      pixels     classification")
		fmt.Fprintln(stdout, "----------  ---------  ---------  --------------")
	}
	for _, d := range ds {
		label := ""
		if m != nil {
			v := m.ClassifyDenoised(d.V)
			switch {
			case v.IsKey:
				label = fmt.Sprintf("KEY %q (d=%.2f)", v.R, v.Dist)
			case v.IsNoise:
				label = fmt.Sprintf("noise:%s", v.Noise)
			default:
				label = "unknown"
			}
		}
		if rec, ok := verdicts[d.At]; ok {
			label += fmt.Sprintf("  [recorded: %s]", rec)
		}
		fmt.Fprintf(stdout, "%-10v  %9.0f  %9.0f  %s\n", d.At, d.V[0], d.V[3], label)
	}

	if m == nil {
		return nil
	}
	atk := attack.New(m)
	atk.Interval = tr.Interval
	var res *attack.Result
	if *offline {
		res, err = atk.EavesdropTraceOffline(tr)
	} else {
		res, err = atk.EavesdropTrace(tr)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nrecoverable credential: %q (%d keys)\n", res.Text, len(res.Keys))
	if res.EstimatedLength >= 0 {
		fmt.Fprintf(stdout, "input length from echo redraws: %d\n", res.EstimatedLength)
	}
	return nil
}

// summarizeTelemetry prints the stream's shape: span, tracks, and
// per-event-name counts in name order.
func summarizeTelemetry(w io.Writer, evs []obs.Event) {
	var span sim.Time
	tracks := map[string]bool{}
	counts := map[string]int{}
	for _, e := range evs {
		if end := e.At + e.Dur; end > span {
			span = end
		}
		tracks[e.Track] = true
		counts[string(e.Name)]++
	}
	fmt.Fprintf(w, "telemetry: %d events, %d tracks, %v span\n\n", len(evs), len(tracks), span)
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %6d\n", n, counts[n])
	}
}
