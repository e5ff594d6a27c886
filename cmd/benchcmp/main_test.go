package main

import "testing"

// TestDiffMetrics pins what the blocking metrics gate calls drift: every
// baseline metric must be present in the new report with an equal value,
// and a metric only the new report has is not drift.
func TestDiffMetrics(t *testing.T) {
	baseline := &report{Experiments: []experimentReport{
		{ID: "fusion", Metrics: map[string]float64{"fusion.win": 0.19, "fusion.char_acc.fused.none": 1}},
		{ID: "arms", Metrics: map[string]float64{"arms.best_drop": 0.5}},
	}}
	cases := []struct {
		name  string
		cur   []experimentReport
		drift bool
	}{
		{
			name: "equal",
			cur: []experimentReport{
				{ID: "fusion", Metrics: map[string]float64{"fusion.win": 0.19, "fusion.char_acc.fused.none": 1}},
				{ID: "arms", Metrics: map[string]float64{"arms.best_drop": 0.5}},
			},
		},
		{
			name: "changed",
			cur: []experimentReport{
				{ID: "fusion", Metrics: map[string]float64{"fusion.win": 0.18, "fusion.char_acc.fused.none": 1}},
				{ID: "arms", Metrics: map[string]float64{"arms.best_drop": 0.5}},
			},
			drift: true,
		},
		{
			name: "missing metric",
			cur: []experimentReport{
				{ID: "fusion", Metrics: map[string]float64{"fusion.char_acc.fused.none": 1}},
				{ID: "arms", Metrics: map[string]float64{"arms.best_drop": 0.5}},
			},
			drift: true,
		},
		{
			name: "missing experiment",
			cur: []experimentReport{
				{ID: "fusion", Metrics: map[string]float64{"fusion.win": 0.19, "fusion.char_acc.fused.none": 1}},
			},
			drift: true,
		},
		{
			name: "new metric",
			cur: []experimentReport{
				{ID: "fusion", Metrics: map[string]float64{"fusion.win": 0.19, "fusion.char_acc.fused.none": 1, "fusion.extra": 2}},
				{ID: "arms", Metrics: map[string]float64{"arms.best_drop": 0.5}},
				{ID: "chaos", Metrics: map[string]float64{"chaos.baseline_match": 1}},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := diffMetrics(baseline, &report{Experiments: c.cur}); got != c.drift {
				t.Errorf("diffMetrics = %v, want %v", got, c.drift)
			}
		})
	}
}
