package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"gpuleak/internal/stats"
)

// options is one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// setups is how many times the workload is set up; setup_s reports
	// their median.
	setups int
	// maxOps caps the timed phase below the rate x seconds ops it would
	// run; the harness tests use it for tiny runs.
	maxOps int
}

// runDeadline bounds one whole run, so a wedged op fails the run instead
// of keeping it past the three minutes any run must end within.
const runDeadline = 150 * time.Second

// maxLate is the validity guard on the open-loop generator: a run whose
// median hand-out lateness exceeds it measured the client, not the
// system.
const maxLate = 5 * time.Millisecond

// replayEvery picks the ops the replay checks re-derive after the timed
// phase: every 50th, at any seed.
const replayEvery = 50

//go:embed expected.json
var expectedJSON []byte

// expected are the pinned outputs of expected.json.
var expected = func() pins {
	var p pins
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		panic(fmt.Sprintf("expected.json: %v", err)) // an embedded file: only a bad edit breaks it
	}
	return p
}()

// pins are the outputs expected at the default seed: per workload, the
// digest and accuracy of the first Ops results, plus an accuracy floor
// that holds at any seed.
type pins struct {
	Seed      int64 `json:"seed"`
	Ops       int   `json:"ops"`
	Workloads map[string]struct {
		Digest     string  `json:"digest"`
		CharAcc    float64 `json:"char_acc"`
		TextAcc    float64 `json:"text_acc"`
		MinCharAcc float64 `json:"min_char_acc"`
	} `json:"workloads"`
}

// outcome is one measured run.
type outcome struct {
	w       *workload
	o       options
	samples []sample
	setups  []float64
	e2e     map[string]float64
	layers  map[string]float64 // traced runs only
	digest  string
	// problems are failed output checks; invalid says why the timings do
	// not measure the system. Either makes the run incorrect. warnings
	// flag timings a stall of the machine inflated.
	problems, invalid, warnings []string
	spans                       *tracer
}

func (out *outcome) failf(format string, args ...any) {
	out.problems = append(out.problems, fmt.Sprintf(format, args...))
}

// correct reports whether every output check passed on a valid run.
func (out *outcome) correct() bool { return len(out.problems)+len(out.invalid) == 0 }

func (out *outcome) results() []result {
	rs := make([]result, len(out.samples))
	for i, s := range out.samples {
		rs[i] = s.res
	}
	return rs
}

func (out *outcome) failed() int {
	n := 0
	for _, s := range out.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// run sets the workload up o.setups times, times one phase of ops on the
// last set-up, and checks the outputs.
func run(w *workload, o options) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	var b bench
	var setups []float64
	for k := 0; k < o.setups; k++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := w.setup(ctx, w.name, o.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	defer b.close()

	n := max(1, int(math.Round(w.rate*o.seconds)))
	if o.maxOps > 0 {
		n = min(n, o.maxOps)
	}
	tr.start()
	stopRSS := sampleRSS()
	before := takeSnapshot()
	var samples []sample
	if w.closed {
		samples = closedLoop(ctx, n, b.do)
	} else {
		samples = openLoop(ctx, n, w.rate, b.do)
	}
	after := takeSnapshot()
	rss, err := stopRSS()
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("timed phase ran no ops")
	}

	out := &outcome{w: w, o: o, samples: samples, setups: setups, spans: tr,
		e2e: endToEndMetrics(samples, setups, rss, before, after)}
	out.checkOutputs()
	if err := b.check(ctx, samples); err != nil {
		out.failf("%v", err)
	}
	if o.trace {
		out.layers = map[string]float64{}
		for _, d := range perLayer {
			out.layers[d.Name] = 0
		}
		for i, s := range samples {
			tr.add(span{name: "op", op: i, tid: s.worker, start: s.due, end: s.done})
		}
		p := phase{samples: samples, before: before, after: after}
		commonLayers(p, out.layers)
		b.layers(p, out.layers)
	}
	return out, nil
}

// checkOutputs applies the checks every workload shares: no op failed,
// the generator kept to its schedule, and the outputs match the pins.
func (out *outcome) checkOutputs() {
	for _, s := range out.samples {
		if s.err != nil {
			out.failf("%d of %d ops failed; first: %v", out.failed(), len(out.samples), s.err)
			break
		}
	}
	if !out.w.closed {
		// A stall of the shared machine makes the generator late for a
		// moment and is charged to the system, since latency counts from
		// the due time; a generator late for half the run set the pace
		// itself, and the run measured the client.
		late := durationsMS(out.samples, func(s *sample) time.Duration { return s.late })
		if p50 := percentile(late, 50); p50 > ms(maxLate) {
			out.invalid = append(out.invalid, fmt.Sprintf("the load generator handed ops out %.2f ms late at p50 (limit %v)", p50, maxLate))
		} else if p99 := percentile(late, 99); p99 > ms(maxLate) {
			out.warnings = append(out.warnings, fmt.Sprintf("the load generator handed ops out %.2f ms late at p99 (%v at most on a quiet machine): a stall, counted in the latencies", p99, maxLate))
		}
	}
	p := expected
	pin := p.Workloads[out.w.name]
	rs := out.results()
	first := rs[:min(len(rs), p.Ops)]
	out.digest = digest(first)
	charAcc, _ := accuracy(rs)
	if charAcc < pin.MinCharAcc {
		out.failf("char_acc %.4f below the floor %.4f", charAcc, pin.MinCharAcc)
	}
	if out.o.seed != p.Seed || len(first) < p.Ops {
		return
	}
	if out.digest != pin.Digest {
		out.failf("output digest of the first %d ops is %s, pinned %s", p.Ops, out.digest, pin.Digest)
	}
	if c, t := accuracy(first); c != pin.CharAcc || t != pin.TextAcc {
		out.failf("first %d ops: char_acc %v text_acc %v, pinned %v and %v", p.Ops, c, t, pin.CharAcc, pin.TextAcc)
	}
}

// accuracy is the §7.1 key-press and whole-text accuracy of the
// eavesdrop results among rs (0, 0 when there are none).
func accuracy(rs []result) (charAcc, textAcc float64) {
	var inferred, truth []string
	for _, r := range rs {
		if r.Truth != "" {
			inferred = append(inferred, r.Text)
			truth = append(truth, r.Truth)
		}
	}
	return stats.CharAccuracy(inferred, truth), stats.TextAccuracy(inferred, truth)
}

// summary is the JSON object a run prints as its last line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (out *outcome) summary() summary {
	defs, vals := endToEnd, out.e2e
	if out.o.trace {
		defs, vals = perLayer, out.layers
	}
	s := summary{Correct: out.correct(), Attempted: len(out.samples), Failed: out.failed(),
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		s.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return s
}

// report prints the run for a reader: every metric by name and unit,
// the sample counts behind the percentiles, accuracy and the checks.
func (out *outcome) report(wr io.Writer) {
	loop := fmt.Sprintf("open loop, %g ops/s over %d connections", out.w.rate, conns)
	if out.w.closed {
		loop = "closed loop, 1 client"
	}
	mode := "untraced"
	if out.o.trace {
		mode = "traced"
	}
	fmt.Fprintf(wr, "== %s: %s; seed %d; %g s; %s\n", out.w.name, loop, out.o.seed, out.o.seconds, mode)
	n, failed := len(out.samples), out.failed()
	fmt.Fprintf(wr, "   ops %d attempted, %d failed (error_rate %g)\n", n, failed, float64(failed)/float64(n))
	for _, d := range endToEnd {
		fmt.Fprintf(wr, "   %-28s %12.4f %s\n", d.Name, out.e2e[d.Name], d.Unit)
	}
	fmt.Fprintf(wr, "   setup_s is the median of %d set-ups: %s\n", len(out.setups), formatFloats(out.setups))
	// p99 is reported, not gated: a sub-second stall of the shared
	// machine moves it several-fold, and a default-length serving run
	// leaves fewer than 10 samples beyond it.
	lat := durationsMS(out.samples, (*sample).latency)
	fmt.Fprintf(wr, "   %-28s %12.4f ms (not gated; %d of %d ops beyond it)\n", "latency_p99_ms", percentile(lat, 99), beyond(len(lat), 99), len(lat))
	if p := tailPercentile(len(lat)); p < 99 {
		fmt.Fprintf(wr, "   the highest percentile with 10 samples beyond it is p%d\n", p)
	}
	if c, t := accuracy(out.results()); c > 0 {
		fmt.Fprintf(wr, "   char_acc %.4f  text_acc %.4f\n", c, t)
	}
	fmt.Fprintf(wr, "   output digest of the first %d ops: %s\n", min(n, expected.Ops), out.digest)
	if out.o.trace {
		fmt.Fprintf(wr, "   per-layer ledger:\n")
		for _, d := range perLayer {
			fmt.Fprintf(wr, "   %-28s %12.4f %s\n", d.Name, out.layers[d.Name], d.Unit)
		}
	}
	if out.correct() {
		fmt.Fprintf(wr, "   checks: ok\n")
	}
	for _, p := range out.problems {
		fmt.Fprintf(wr, "   CHECK FAILED: %s\n", p)
	}
	for _, p := range out.invalid {
		fmt.Fprintf(wr, "   INVALID RUN: %s\n", p)
	}
	for _, p := range out.warnings {
		fmt.Fprintf(wr, "   WARNING: %s\n", p)
	}
}

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
