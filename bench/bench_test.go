package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[int]float64{50: 500, 90: 900, 99: 990} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%d of 1..1000 = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct{ n, want int }{
		{1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

// TestOpenLoopCountsQueueing pins due-time accounting: an op that waits
// for a free connection carries the wait in its latency.
func TestOpenLoopCountsQueueing(t *testing.T) {
	const service = 20 * time.Millisecond
	// Six ops due 5 ms apart on two connections, each taking 20 ms: the
	// sixth is due at 25 ms but cannot start before 40 ms or end before 60.
	samples := openLoop(context.Background(), 6, 200, func(_ context.Context, _ int, _ *sample) {
		time.Sleep(service)
	})
	last := samples[5]
	if wait := last.start.Sub(last.due); wait < 15*time.Millisecond {
		t.Errorf("sixth op waited %v for a connection, want at least 15ms", wait)
	}
	if lat := last.done.Sub(last.due); lat < 35*time.Millisecond {
		t.Errorf("sixth op latency %v, want at least 35ms counted from its due time", lat)
	}
	if got, want := last.ttfv(), last.done.Sub(last.due); got != want {
		t.Errorf("ttfv without a first verdict = %v, want the latency %v", got, want)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNamesValid(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	b := loadBenchmark(t)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef{}, b.EndToEnd...), b.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > b.EndToEnd[0].Bound {
			t.Errorf("metric %s: bound %v above setup_s's", d.Name, d.Bound)
		}
	}
	if s := b.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", s)
	}
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json and the harness
// to the same workloads and metrics, in both directions.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %s: %s", i, got, w.name, w.why)
		}
	}
	same := func(kind string, file, harness []metricDef) {
		if len(file) != len(harness) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(file), len(harness))
			return
		}
		for i := range harness {
			if file[i] != harness[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, file[i], harness[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if want := []string{"bash", "bench/run.sh"}; len(b.Command) != 2 || b.Command[0] != want[0] || b.Command[1] != want[1] {
		t.Errorf("command %q, want %q", b.Command, want)
	}
}

// TestSmoke runs every workload for a handful of ops, untraced and
// traced, and requires clean output checks and every metric of its mode.
// It leaves the timing validity guard alone: under the race detector the
// load generator cannot keep to its schedule.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models for every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: defaultSeed, seconds: 10, trace: traced, setups: 1, maxOps: 4}
			out, err := run(w, o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			s := out.summary()
			if len(out.problems) > 0 || s.Attempted != o.maxOps || s.Failed != 0 {
				t.Errorf("%s (traced %v): summary %+v, problems %q", w.name, traced, s, out.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := s.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s (traced %v): metric %s = %+v", w.name, traced, d.Name, v)
				}
			}
			if !traced {
				continue
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := writeChrome(path, out.spans.chrome(w.name, 1)); err != nil {
				t.Fatal(err)
			}
			evs, err := readChrome(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) < 1+o.maxOps {
				t.Errorf("%s: trace holds %d events, want the process name and a span per op", w.name, len(evs))
			}
		}
	}
}
