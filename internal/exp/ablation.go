package exp

import (
	"fmt"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
)

// RunAblationDedup sweeps the §5.1 duplication window Ti. The paper picks
// 75 ms (the shortest plausible human inter-key interval); disabling the
// window lets popup-animation duplications double characters, while an
// oversized window swallows genuine fast presses.
func RunAblationDedup(o Options) (*Result, error) {
	res := newResult("ablation-dedup", "Ablation: duplication window Ti",
		"Ti", "text acc", "char acc")

	cfg := DefaultConfig()
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(120)
	type cfgT struct {
		label string
		opts  attack.OnlineOptions
	}
	cases := []cfgT{
		{"disabled", attack.OnlineOptions{DisableDedup: true}},
		{"25ms", attack.OnlineOptions{DedupWindow: 25 * sim.Millisecond}},
		{"75ms (paper)", attack.OnlineOptions{}},
		{"150ms", attack.OnlineOptions{DedupWindow: 150 * sim.Millisecond}},
	}
	var trials []trial
	for ci, c := range cases {
		base := kgslTrial(cfg, m)
		base.opts = c.opts
		// Fast typists stress the window the most.
		trials = append(trials, typing(base, LowerDigits, 10, per,
			input.Volunteers[3], input.SpeedFast, o.Seed+int64(ci)*81799)...)
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	for ci, b := range blocks(recs, per) {
		ta := stats.TextAccuracy(texts(b))
		res.Table.AddRow(cases[ci].label, stats.Pct(ta), stats.Pct(stats.CharAccuracy(texts(b))))
		res.Metrics["text_"+cases[ci].label] = ta
	}
	return res, nil
}

// RunAblationSplit toggles Algorithm 1's split combining.
func RunAblationSplit(o Options) (*Result, error) {
	res := newResult("ablation-split", "Ablation: split combining (Algorithm 1)",
		"combining", "text acc", "char acc", "splits recovered")

	cfg := DefaultConfig()
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(120)
	var trials []trial
	for ci, disabled := range []bool{false, true} {
		base := kgslTrial(cfg, m)
		base.opts.DisableSplitCombine = disabled
		trials = append(trials, typing(base, LowerDigits, 10, per,
			input.Volunteers[0], input.SpeedAny, o.Seed+int64(ci)*91493)...)
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	for ci, b := range blocks(recs, per) {
		label := []string{"on", "off"}[ci]
		splits := 0
		for _, r := range b {
			splits += r.out.Result.Stats.Splits
		}
		ta := stats.TextAccuracy(texts(b))
		res.Table.AddRow(label, stats.Pct(ta), stats.Pct(stats.CharAccuracy(texts(b))),
			fmt.Sprintf("%d", splits))
		res.Metrics["text_"+label] = ta
		res.Metrics["splits_"+label] = float64(splits)
	}
	return res, nil
}

// RunAblationThreshold sweeps the classification threshold Cth around the
// offline-derived value. Small thresholds reject perturbed key presses;
// large ones admit noise as keys.
func RunAblationThreshold(o Options) (*Result, error) {
	res := newResult("ablation-threshold", "Ablation: classification threshold Cth",
		"Cth scale", "text acc", "char acc")

	cfg := DefaultConfig()
	base, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(120)
	scales := []float64{0.1, 0.5, 1.0, 3.0, 10.0}
	var trials []trial
	for si, scale := range scales {
		m := base.Clone()
		m.Cth = base.Cth * scale
		trials = append(trials, typing(kgslTrial(cfg, m), LowerDigits, 10, per,
			input.Volunteers[1], input.SpeedAny, o.Seed+int64(si)*10007)...)
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	for si, b := range blocks(recs, per) {
		label := fmt.Sprintf("%.1fx", scales[si])
		ta := stats.TextAccuracy(texts(b))
		res.Table.AddRow(label, stats.Pct(ta), stats.Pct(stats.CharAccuracy(texts(b))))
		res.Metrics["text_"+label] = ta
	}
	return res, nil
}

// RunAblationCounterSet restricts the feature space to a single counter
// group (LRZ, RAS, VPC) versus all 11 counters, quantifying how much each
// group contributes (the paper jointly examines all of Table 1).
func RunAblationCounterSet(o Options) (*Result, error) {
	res := newResult("ablation-counters", "Ablation: counter subsets",
		"counters", "text acc", "char acc")

	cfg := DefaultConfig()
	base, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(120)
	masks := []struct {
		label string
		dims  []int
	}{
		{"LRZ only", []int{0, 1, 2, 3}},
		{"RAS only", []int{4, 5, 6, 7}},
		{"VPC only", []int{8, 9, 10}},
		{"all 11", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	var trials []trial
	for mi, msk := range masks {
		m := base.Clone()
		w := base.Weights
		keep := map[int]bool{}
		for _, d := range msk.dims {
			keep[d] = true
		}
		for i := range w {
			if !keep[i] {
				// A vanishing (but non-zero) weight removes the dimension
				// from distance computation without tripping the
				// zero-means-one fallback.
				w[i] = 1e-12
			}
		}
		m.Weights = w
		trials = append(trials, typing(kgslTrial(cfg, m), LowerDigits, 10, per,
			input.Volunteers[2], input.SpeedAny, o.Seed+int64(mi)*11003)...)
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	for mi, b := range blocks(recs, per) {
		ca := stats.CharAccuracy(texts(b))
		res.Table.AddRow(masks[mi].label, stats.Pct(stats.TextAccuracy(texts(b))), stats.Pct(ca))
		res.Metrics["char_"+masks[mi].label] = ca
	}
	return res, nil
}

// RunAblationCorrections toggles §5.3 correction tracking on practical
// sessions with backspaces.
func RunAblationCorrections(o Options) (*Result, error) {
	res := newResult("ablation-corrections", "Ablation: §5.3 correction tracking",
		"corrections", "trace acc", "char acc")

	cfg := DefaultConfig()
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(60)
	opts := input.DefaultPracticalOptions()
	opts.SwitchProb = 0 // isolate corrections
	opts.NotifViewProb = 0
	opts.BackspaceProb = 0.15

	// Paired comparison: both arms replay identical sessions.
	trials := make([]trial, 2*per)
	for si := 0; si < per; si++ {
		t := kgslTrial(cfg, m)
		t.cfg.Seed = o.Seed + int64(si)*517
		rng := sim.NewRand(t.cfg.Seed)
		text := input.RandomText(rng, LowerDigits, 10)
		t.script = input.Practical(text, input.Volunteers[si%5], opts, rng, 700*sim.Millisecond)
		trials[si] = t
		t.opts.DisableCorrections = true
		trials[per+si] = t
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	for ci, b := range blocks(recs, per) {
		label := []string{"on", "off"}[ci]
		ta := stats.TextAccuracy(texts(b))
		res.Table.AddRow(label, stats.Pct(ta), stats.Pct(stats.CharAccuracy(texts(b))))
		res.Metrics["trace_"+label] = ta
	}
	return res, nil
}

// RunAblationGreedyVsOffline quantifies the §5.1 accuracy/timeliness
// tradeoff: the streaming (greedy) engine infers keys in real time but
// can pair fragments wrongly; whole-trace segmentation waits until the
// input finishes and reconsiders every grouping.
func RunAblationGreedyVsOffline(o Options) (*Result, error) {
	res := newResult("ablation-greedy", "Ablation: greedy (online) vs whole-trace (offline) segmentation",
		"mode", "text acc", "char acc", "timeliness")

	cfg := DefaultConfig()
	// Stress splits: a slower GPU fragments more frames.
	cfg.Device = android.LGV30
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(150)

	rng := sim.NewRand(o.Seed + 777)
	trials := make([]trial, per)
	for si := range trials {
		t := kgslTrial(cfg, m)
		t.keepTrace = true
		t.cfg.Seed = o.Seed + int64(si)*919
		t.script = input.Typing(input.RandomText(rng, LowerDigits, 10), input.Volunteers[si%5],
			input.SpeedAny, sim.NewRand(t.cfg.Seed^0x77), 700*sim.Millisecond)
		trials[si] = t
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	// The online engine ran inside the sampling loop; whole-trace
	// segmentation reruns on the trace it kept.
	onI, truth := texts(recs)
	offI := make([]string, len(recs))
	for i, r := range recs {
		offline, err := attack.New(m).EavesdropTraceOffline(r.out.Legs[0].Trace)
		if err != nil {
			return nil, err
		}
		offI[i] = offline.Text
	}
	res.Table.AddRow("greedy (online)", stats.Pct(stats.TextAccuracy(onI, truth)),
		stats.Pct(stats.CharAccuracy(onI, truth)), "real-time")
	res.Table.AddRow("whole-trace (offline)", stats.Pct(stats.TextAccuracy(offI, truth)),
		stats.Pct(stats.CharAccuracy(offI, truth)), "after input ends")
	res.Metrics["text_online"] = stats.TextAccuracy(onI, truth)
	res.Metrics["text_offline"] = stats.TextAccuracy(offI, truth)
	res.Metrics["char_online"] = stats.CharAccuracy(onI, truth)
	res.Metrics["char_offline"] = stats.CharAccuracy(offI, truth)
	return res, nil
}
