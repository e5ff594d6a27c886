package exp

import (
	"fmt"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// RunAblationDedup sweeps the §5.1 duplication window Ti. The paper picks
// 75 ms (the shortest plausible human inter-key interval); disabling the
// window lets popup-animation duplications double characters, while an
// oversized window swallows genuine fast presses.
func RunAblationDedup(o Options) (*Result, error) {
	res := newResult("ablation-dedup", "Ablation: duplication window Ti",
		"Ti", "text acc", "char acc")

	cfg := DefaultConfig()
	m, err := TrainModel(cfg, o.Workers, "")
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
	for ci, c := range cases {
		// Fast typists stress the window the most.
		b, err := RunBatch(o, cfg, m, LowerDigits, 10, per,
			input.Volunteers[3], input.SpeedFast, attack.DefaultInterval,
			c.opts, o.Seed+int64(ci)*81799)
		if err != nil {
			return nil, err
		}
		res.Table.AddRow(c.label, stats.Pct(b.TextAccuracy()), stats.Pct(b.CharAccuracy()))
		res.Metrics["text_"+c.label] = b.TextAccuracy()
	}
	return res, nil
}

// RunAblationSplit toggles Algorithm 1's split combining.
func RunAblationSplit(o Options) (*Result, error) {
	res := newResult("ablation-split", "Ablation: split combining (Algorithm 1)",
		"combining", "text acc", "char acc", "splits recovered")

	cfg := DefaultConfig()
	m, err := TrainModel(cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(120)
	for ci, disabled := range []bool{false, true} {
		b, err := RunBatch(o, cfg, m, LowerDigits, 10, per,
			input.Volunteers[0], input.SpeedAny, attack.DefaultInterval,
			attack.OnlineOptions{DisableSplitCombine: disabled}, o.Seed+int64(ci)*91493)
		if err != nil {
			return nil, err
		}
		label := "on"
		if disabled {
			label = "off"
		}
		res.Table.AddRow(label, stats.Pct(b.TextAccuracy()), stats.Pct(b.CharAccuracy()),
			fmt.Sprintf("%d", b.Stats.Splits))
		res.Metrics["text_"+label] = b.TextAccuracy()
		res.Metrics["splits_"+label] = float64(b.Stats.Splits)
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
	base, err := TrainModel(cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(120)
	for si, scale := range []float64{0.1, 0.5, 1.0, 3.0, 10.0} {
		m := base.Clone()
		m.Cth = base.Cth * scale
		b, err := RunBatch(o, cfg, m, LowerDigits, 10, per,
			input.Volunteers[1], input.SpeedAny, attack.DefaultInterval,
			attack.OnlineOptions{}, o.Seed+int64(si)*10007)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%.1fx", scale)
		res.Table.AddRow(label, stats.Pct(b.TextAccuracy()), stats.Pct(b.CharAccuracy()))
		res.Metrics["text_"+label] = b.TextAccuracy()
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
	base, err := TrainModel(cfg, o.Workers, "")
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
		b, err := RunBatch(o, cfg, m, LowerDigits, 10, per,
			input.Volunteers[2], input.SpeedAny, attack.DefaultInterval,
			attack.OnlineOptions{}, o.Seed+int64(mi)*11003)
		if err != nil {
			return nil, err
		}
		res.Table.AddRow(msk.label, stats.Pct(b.TextAccuracy()), stats.Pct(b.CharAccuracy()))
		res.Metrics["char_"+msk.label] = b.CharAccuracy()
	}
	return res, nil
}

// RunAblationCorrections toggles §5.3 correction tracking on practical
// sessions with backspaces.
func RunAblationCorrections(o Options) (*Result, error) {
	res := newResult("ablation-corrections", "Ablation: §5.3 correction tracking",
		"corrections", "trace acc", "char acc")

	cfg := DefaultConfig()
	m, err := TrainModel(cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(60)
	opts := input.DefaultPracticalOptions()
	opts.SwitchProb = 0 // isolate corrections
	opts.NotifViewProb = 0
	opts.BackspaceProb = 0.15

	for ci, disabled := range []bool{false, true} {
		inferred := make([]string, 0, per)
		truths := make([]string, 0, per)
		for si := 0; si < per; si++ {
			// Paired comparison: both arms replay identical sessions.
			seed := o.Seed + int64(si)*517
			_ = ci
			rng := sim.NewRand(seed)
			text := input.RandomText(rng, LowerDigits, 10)
			c := cfg
			c.Seed = seed
			inf, truth, err := eavesdropScript(c, m,
				input.Practical(text, input.Volunteers[si%5], opts, rng, 700*sim.Millisecond),
				attack.OnlineOptions{DisableCorrections: disabled})
			if err != nil {
				return nil, err
			}
			inferred = append(inferred, inf)
			truths = append(truths, truth)
		}
		label := "on"
		if disabled {
			label = "off"
		}
		ta := stats.TextAccuracy(inferred, truths)
		res.Table.AddRow(label, stats.Pct(ta), stats.Pct(stats.CharAccuracy(inferred, truths)))
		res.Metrics["trace_"+label] = ta
	}
	return res, nil
}

func eavesdropScript(cfg victim.Config, m *attack.Model, script input.Script, opts attack.OnlineOptions) (string, string, error) {
	sess := victim.New(cfg)
	sess.Run(script)
	f, err := sess.Open()
	if err != nil {
		return "", "", err
	}
	atk := &attack.Attack{Models: []*attack.Model{m}, Interval: attack.DefaultInterval, Options: opts}
	r, err := atk.Eavesdrop(f, 0, sess.End)
	if err != nil {
		return "", "", err
	}
	return r.Text, sess.TypedText(), nil
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
	cfg.Device = androidLGV30()
	m, err := TrainModel(cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(150)

	var onI, onT, offI, offT []string
	rng := sim.NewRand(o.Seed + 777)
	for si := 0; si < per; si++ {
		text := input.RandomText(rng, LowerDigits, 10)
		seed := o.Seed + int64(si)*919
		c := cfg
		c.Seed = seed
		sess := victim.New(c)
		sess.Run(input.Typing(text, input.Volunteers[si%5], input.SpeedAny,
			sim.NewRand(seed^0x77), 700*sim.Millisecond))
		f, err := sess.Open()
		if err != nil {
			return nil, err
		}
		atk := attack.New(m)
		smp, err := attack.NewSampler(f, attack.DefaultInterval)
		if err != nil {
			return nil, err
		}
		tr, err := smp.Collect(0, sess.End)
		if err != nil {
			return nil, err
		}
		online, err := atk.EavesdropTrace(tr)
		if err != nil {
			return nil, err
		}
		offline, err := atk.EavesdropTraceOffline(tr)
		if err != nil {
			return nil, err
		}
		truth := sess.TypedText()
		onI, onT = append(onI, online.Text), append(onT, truth)
		offI, offT = append(offI, offline.Text), append(offT, truth)
	}
	res.Table.AddRow("greedy (online)", stats.Pct(stats.TextAccuracy(onI, onT)),
		stats.Pct(stats.CharAccuracy(onI, onT)), "real-time")
	res.Table.AddRow("whole-trace (offline)", stats.Pct(stats.TextAccuracy(offI, offT)),
		stats.Pct(stats.CharAccuracy(offI, offT)), "after input ends")
	res.Metrics["text_online"] = stats.TextAccuracy(onI, onT)
	res.Metrics["text_offline"] = stats.TextAccuracy(offI, offT)
	res.Metrics["char_online"] = stats.CharAccuracy(onI, onT)
	res.Metrics["char_offline"] = stats.CharAccuracy(offI, offT)
	return res, nil
}

// androidLGV30 avoids an import cycle nuisance in this file's header.
func androidLGV30() android.DeviceModel { return android.LGV30 }
