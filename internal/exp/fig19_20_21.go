package exp

import (
	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/parallel"
	"gpuleak/internal/stats"
)

// RunFig19 reproduces Figure 19: inference accuracy across the nine
// target applications (banking, investment, credit report, and their
// Chrome webpage variants). Paper: always above 80% text accuracy.
func RunFig19(o Options) (*Result, error) {
	res := newResult("fig19", "Figure 19: inference accuracy on different target apps",
		"app", "text acc", "char acc")

	perApp := o.Trials(100)
	// The nine apps are independent configurations; run them through the
	// pool and assemble rows in app order afterwards.
	batches, err := parallel.Map(o.Workers, len(android.TargetApps), func(ai int) (*BatchResult, error) {
		cfg := DefaultConfig()
		cfg.App = android.TargetApps[ai]
		m, err := TrainModel(cfg, o.Workers, "")
		if err != nil {
			return nil, err
		}
		return RunBatch(o, cfg, m, LowerDigits, 10, perApp,
			input.Volunteers[ai%5], input.SpeedAny, attack.DefaultInterval,
			attack.OnlineOptions{}, o.Seed+int64(ai)*19391)
	})
	if err != nil {
		return nil, err
	}
	var minText float64 = 1
	for ai, app := range android.TargetApps {
		ta, ca := batches[ai].TextAccuracy(), batches[ai].CharAccuracy()
		res.Table.AddRow(app.Name, stats.Pct(ta), stats.Pct(ca))
		res.Metrics["text_"+app.Name] = ta
		res.Metrics["char_"+app.Name] = ca
		if ta < minText {
			minText = ta
		}
	}
	res.Metrics["min_text_acc"] = minText
	return res, nil
}

// RunFig20 reproduces Figure 20: inference accuracy across the six
// popular on-screen keyboards. Paper: high accuracy on all, <5%
// variation.
func RunFig20(o Options) (*Result, error) {
	res := newResult("fig20", "Figure 20: inference accuracy on different keyboards",
		"keyboard", "text acc", "char acc")

	perKb := o.Trials(100)
	batches, err := parallel.Map(o.Workers, len(keyboard.All), func(ki int) (*BatchResult, error) {
		cfg := DefaultConfig()
		cfg.Keyboard = keyboard.All[ki]
		m, err := TrainModel(cfg, o.Workers, "")
		if err != nil {
			return nil, err
		}
		return RunBatch(o, cfg, m, LowerDigits, 10, perKb,
			input.Volunteers[ki%5], input.SpeedAny, attack.DefaultInterval,
			attack.OnlineOptions{}, o.Seed+int64(ki)*26407)
	})
	if err != nil {
		return nil, err
	}
	var lo, hi float64 = 1, 0
	for ki, kb := range keyboard.All {
		ta, ca := batches[ki].TextAccuracy(), batches[ki].CharAccuracy()
		res.Table.AddRow(kb.Name, stats.Pct(ta), stats.Pct(ca))
		res.Metrics["text_"+kb.Name] = ta
		res.Metrics["char_"+kb.Name] = ca
		if ca < lo {
			lo = ca
		}
		if ca > hi {
			hi = ca
		}
	}
	res.Metrics["char_acc_spread"] = hi - lo
	return res, nil
}

// RunFig21 reproduces Figure 21: the impact of typing speed. Paper: the
// per-key accuracy stays constant while the text accuracy drops for slow
// typists (longer traces accumulate more random system noise), with mean
// errors still below 1.3.
func RunFig21(o Options) (*Result, error) {
	res := newResult("fig21", "Figure 21: impact of user input speed",
		"speed", "text acc", "char acc", "mean errors")

	cfg := DefaultConfig()
	// Speed sensitivity comes from noise accumulating over the longer
	// trace; keep the default notification rate.
	m, err := TrainModel(cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(300)
	speeds := []input.Speed{input.SpeedSlow, input.SpeedMedium, input.SpeedFast}
	batches, err := parallel.Map(o.Workers, len(speeds), func(si int) (*BatchResult, error) {
		return RunBatch(o, cfg, m, LowerDigits, 10, per,
			input.Volunteers[si%5], speeds[si], attack.DefaultInterval,
			attack.OnlineOptions{}, o.Seed+int64(si)*31357)
	})
	if err != nil {
		return nil, err
	}
	var fastText, slowText float64
	var charAccs []float64
	for si, sp := range speeds {
		b := batches[si]
		ta, ca, me := b.TextAccuracy(), b.CharAccuracy(), b.MeanErrors()
		res.Table.AddRow(sp.String(), stats.Pct(ta), stats.Pct(ca), stats.Fmt(me))
		res.Metrics["text_"+sp.String()] = ta
		res.Metrics["char_"+sp.String()] = ca
		res.Metrics["errors_"+sp.String()] = me
		charAccs = append(charAccs, ca)
		switch sp {
		case input.SpeedFast:
			fastText = ta
		case input.SpeedSlow:
			slowText = ta
		}
	}
	res.Metrics["fast_minus_slow_text"] = fastText - slowText
	res.Metrics["char_acc_spread"] = stats.Percentile(charAccs, 100) - stats.Percentile(charAccs, 0)
	return res, nil
}
