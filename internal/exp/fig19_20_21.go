package exp

import (
	"gpuleak/internal/android"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/stats"
)

// RunFig19 reproduces Figure 19: inference accuracy across the nine
// target applications (banking, investment, credit report, and their
// Chrome webpage variants). Paper: always above 80% text accuracy.
func RunFig19(o Options) (*Result, error) {
	res := newResult("fig19", "Figure 19: inference accuracy on different target apps",
		"app", "text acc", "char acc")

	perApp := o.Trials(100)
	var trials []trial
	for ai, app := range android.TargetApps {
		cfg := DefaultConfig()
		cfg.App = app
		m, err := TrainModel(o.Context(), cfg, o.Workers, "")
		if err != nil {
			return nil, err
		}
		trials = append(trials, typing(kgslTrial(cfg, m), LowerDigits, 10, perApp,
			input.Volunteers[ai%5], input.SpeedAny, o.Seed+int64(ai)*19391)...)
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	var minText float64 = 1
	for ai, b := range blocks(recs, perApp) {
		app := android.TargetApps[ai]
		ta, ca := stats.TextAccuracy(texts(b)), stats.CharAccuracy(texts(b))
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
	var trials []trial
	for ki, kb := range keyboard.All {
		cfg := DefaultConfig()
		cfg.Keyboard = kb
		m, err := TrainModel(o.Context(), cfg, o.Workers, "")
		if err != nil {
			return nil, err
		}
		trials = append(trials, typing(kgslTrial(cfg, m), LowerDigits, 10, perKb,
			input.Volunteers[ki%5], input.SpeedAny, o.Seed+int64(ki)*26407)...)
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	var lo, hi float64 = 1, 0
	for ki, b := range blocks(recs, perKb) {
		kb := keyboard.All[ki]
		ta, ca := stats.TextAccuracy(texts(b)), stats.CharAccuracy(texts(b))
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
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(300)
	speeds := []input.Speed{input.SpeedSlow, input.SpeedMedium, input.SpeedFast}
	var trials []trial
	for si, sp := range speeds {
		trials = append(trials, typing(kgslTrial(cfg, m), LowerDigits, 10, per,
			input.Volunteers[si%5], sp, o.Seed+int64(si)*31357)...)
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	var fastText, slowText float64
	var charAccs []float64
	for si, b := range blocks(recs, per) {
		sp := speeds[si]
		inf, truth := texts(b)
		ta, ca, me := stats.TextAccuracy(inf, truth), stats.CharAccuracy(inf, truth), stats.MeanErrors(inf, truth)
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
