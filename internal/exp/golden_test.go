package exp

// The arms and chaos reports committed at the repo root are goldens: the
// tests rerun their canonical configurations and byte-compare the
// encoded report against the file. Regenerate with
//
//	go test ./internal/exp -run 'TestArmsTournamentBitIdenticalAcrossWorkers|TestChaosReportDeterministicAcrossWorkers' -update
//
// BENCH_baseline.json, also at the repo root, pins every quick-scale
// experiment metric; see TestQuickMetricsMatchBaseline.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed arms-report.json and chaos-report.json")

// encodeReport renders a report exactly as it is committed: indented
// JSON with a trailing newline.
func encodeReport(t *testing.T, rep any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGoldenReport compares got against the named file at the repo
// root, reporting the first differing line; with -update it rewrites the
// file instead.
func checkGoldenReport(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("..", "..", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("report diverges from %s at line %d (regenerate with -update if intended):\n got: %s\nwant: %s",
				name, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("report has %d lines, %s has %d (regenerate with -update if intended)", len(gl), name, len(wl))
	}
}

// benchExperiment is one experiment's entry in a gpuleak-bench/v1
// report (cmd/benchpaper -json); other fields are ignored.
type benchExperiment struct {
	ID      string             `json:"id"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// diffMetrics lists, in baseline order, every baseline metric that cur
// lacks or holds at another value. A metric only cur has is not drift,
// so an experiment can grow a metric without a re-pin.
func diffMetrics(base, cur []benchExperiment) []string {
	ran := map[string]map[string]float64{}
	for _, e := range cur {
		ran[e.ID] = e.Metrics
	}
	var drift []string
	for _, e := range base {
		got, ok := ran[e.ID]
		keys := make([]string, 0, len(e.Metrics))
		for k := range e.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v, had := got[k]
			switch {
			case !ok:
				drift = append(drift, fmt.Sprintf("%s/%s %v -> experiment missing", e.ID, k, e.Metrics[k]))
			case !had:
				drift = append(drift, fmt.Sprintf("%s/%s %v -> missing", e.ID, k, e.Metrics[k]))
			case v != e.Metrics[k]:
				drift = append(drift, fmt.Sprintf("%s/%s %v -> %v", e.ID, k, e.Metrics[k], v))
			}
		}
	}
	return drift
}

// TestQuickMetricsMatchBaseline pins every quick-scale metric of the
// committed BENCH_baseline.json: each registry experiment runs at the
// baseline's quick and seed settings, and every baseline metric must be
// present and equal. The metrics are sim-time results, so they are exact
// at any worker count. After an intended change, regenerate the baseline
// from the repo root with
//
//	GOMAXPROCS=1 go run ./cmd/benchpaper -json > BENCH_baseline.json
func TestQuickMetricsMatchBaseline(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Quick       bool              `json:"quick"`
		Seed        int64             `json:"seed"`
		Experiments []benchExperiment `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	var cur []benchExperiment
	for _, e := range All {
		r, err := runCached(e, base.Quick, base.Seed)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		cur = append(cur, benchExperiment{ID: e.ID, Metrics: r.Metrics})
	}
	for _, d := range diffMetrics(base.Experiments, cur) {
		t.Errorf("metric drift: %s", d)
	}
}

// TestDiffMetrics pins what the metric pin calls drift: every baseline
// metric must be present in the new run with an equal value, and a
// metric only the new run has is not drift.
func TestDiffMetrics(t *testing.T) {
	baseline := []benchExperiment{
		{ID: "fusion", Metrics: map[string]float64{"fusion.win": 0.19, "fusion.char_acc.fused.none": 1}},
		{ID: "arms", Metrics: map[string]float64{"arms.best_drop": 0.5}},
	}
	cases := []struct {
		name  string
		cur   []benchExperiment
		drift int
	}{
		{
			name: "equal",
			cur: []benchExperiment{
				{ID: "fusion", Metrics: map[string]float64{"fusion.win": 0.19, "fusion.char_acc.fused.none": 1}},
				{ID: "arms", Metrics: map[string]float64{"arms.best_drop": 0.5}},
			},
		},
		{
			name: "changed",
			cur: []benchExperiment{
				{ID: "fusion", Metrics: map[string]float64{"fusion.win": 0.18, "fusion.char_acc.fused.none": 1}},
				{ID: "arms", Metrics: map[string]float64{"arms.best_drop": 0.5}},
			},
			drift: 1,
		},
		{
			name: "missing metric",
			cur: []benchExperiment{
				{ID: "fusion", Metrics: map[string]float64{"fusion.char_acc.fused.none": 1}},
				{ID: "arms", Metrics: map[string]float64{"arms.best_drop": 0.5}},
			},
			drift: 1,
		},
		{
			name: "missing experiment",
			cur: []benchExperiment{
				{ID: "fusion", Metrics: map[string]float64{"fusion.win": 0.19, "fusion.char_acc.fused.none": 1}},
			},
			drift: 1,
		},
		{
			name: "new metric",
			cur: []benchExperiment{
				{ID: "fusion", Metrics: map[string]float64{"fusion.win": 0.19, "fusion.char_acc.fused.none": 1, "fusion.extra": 2}},
				{ID: "arms", Metrics: map[string]float64{"arms.best_drop": 0.5}},
				{ID: "chaos", Metrics: map[string]float64{"chaos.baseline_match": 1}},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := diffMetrics(baseline, c.cur); len(got) != c.drift {
				t.Errorf("diffMetrics = %q, want %d drifted metrics", got, c.drift)
			}
		})
	}
}
