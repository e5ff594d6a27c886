package exp

import (
	"bytes"
	"fmt"

	"gpuleak/internal/android"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
)

// RunFig28 reproduces §8 (Figures 27/28): practical usage sessions where
// five volunteers type credentials while randomly correcting input,
// switching apps and glancing at notifications. Paper: average per-key
// accuracy 97.1%, average trace (final credential) accuracy 78.0%.
func RunFig28(o Options) (*Result, error) {
	res := newResult("fig28", "Figure 28: accuracy in practical usage sessions",
		"volunteer", "trace acc", "char acc", "corrections detected")

	per := o.Trials(10) // sessions per volunteer
	apps := []*android.App{android.Chase, android.Amex, android.Fidelity,
		android.Schwab, android.MyFICO, android.Experian}

	var trials []trial
	for vi, vol := range input.Volunteers {
		for si := 0; si < per; si++ {
			cfg := DefaultConfig()
			cfg.App = apps[(vi*per+si)%len(apps)]
			m, err := TrainModel(o.Context(), cfg, o.Workers, "")
			if err != nil {
				return nil, err
			}
			t := kgslTrial(cfg, m)
			t.cfg.Seed = o.Seed + int64(vi)*70001 + int64(si)*733
			rng := sim.NewRand(t.cfg.Seed)
			text := input.RandomText(rng, LowerDigits, 8+rng.Intn(9))
			t.script = input.Practical(text, vol, input.DefaultPracticalOptions(), rng, 700*sim.Millisecond)
			trials = append(trials, t)
		}
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	var traceAccs, charAccs []float64
	for vi, b := range blocks(recs, per) {
		vol := input.Volunteers[vi]
		corrections := 0
		for _, r := range b {
			corrections += r.out.Result.Stats.Corrections
		}
		ta, ca := stats.TextAccuracy(texts(b)), stats.CharAccuracy(texts(b))
		res.Table.AddRow(vol.Name, stats.Pct(ta), stats.Pct(ca), fmt.Sprintf("%d", corrections))
		res.Metrics["trace_"+vol.Name] = ta
		res.Metrics["char_"+vol.Name] = ca
		traceAccs = append(traceAccs, ta)
		charAccs = append(charAccs, ca)
	}
	res.Metrics["avg_trace_acc"] = stats.Mean(traceAccs)
	res.Metrics["avg_char_acc"] = stats.Mean(charAccs)
	return res, nil
}

// RunFig29 reproduces the §9.3 obfuscation observations: the PNC app's
// decorative login animation drags eavesdropping accuracy down (paper:
// 30.2%), and OS-injected random GPU workloads degrade accuracy at a GPU
// cost that grows with the obfuscation amplitude.
func RunFig29(o Options) (*Result, error) {
	res := newResult("fig29", "§9.3: obfuscation mitigations",
		"mitigation", "text acc", "char acc", "note")

	per := o.Trials(100)

	// Baseline: Chase (no animation).
	base := DefaultConfig()
	mBase, err := TrainModel(o.Context(), base, o.Workers, "")
	if err != nil {
		return nil, err
	}
	// PNC: decorative login animation. The attacker trains on PNC too —
	// the animation still interferes because its frames continuously
	// perturb the counters.
	pnc := DefaultConfig()
	pnc.App = android.PNC
	mPNC, err := TrainModel(o.Context(), pnc, o.Workers, "")
	if err != nil {
		return nil, err
	}
	trials := append(typing(kgslTrial(base, mBase), LowerDigits, 10, per, input.Volunteers[0],
		input.SpeedAny, o.Seed+291),
		typing(kgslTrial(pnc, mPNC), LowerDigits, 10, per, input.Volunteers[1],
			input.SpeedAny, o.Seed+292)...)
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	cells := blocks(recs, per)
	bt, bc := stats.TextAccuracy(texts(cells[0])), stats.CharAccuracy(texts(cells[0]))
	res.Table.AddRow("none (Chase)", stats.Pct(bt), stats.Pct(bc), "")
	res.Metrics["baseline_text"] = bt
	pt, pc := stats.TextAccuracy(texts(cells[1])), stats.CharAccuracy(texts(cells[1]))
	res.Table.AddRow("PNC login animation", stats.Pct(pt), stats.Pct(pc), "app-side")
	res.Metrics["pnc_text"] = pt
	res.Metrics["pnc_char"] = pc
	return res, nil
}

// RunModelSize reproduces the §7.6 storage accounting: the size of one
// serialized classification model and the footprint of a 3,000-model
// bundle (100 phones x 15 keyboards x 2 resolutions). Paper: 3.59 kB per
// model, at most 13.40 MB total.
func RunModelSize(o Options) (*Result, error) {
	res := newResult("modelsize", "§7.6: classification model storage",
		"quantity", "value")

	m, err := TrainModel(o.Context(), DefaultConfig(), o.Workers, "")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return nil, err
	}
	one := buf.Len()
	total3000 := float64(one) * 3000 / (1 << 20)
	res.Table.AddRow("one model", fmt.Sprintf("%d bytes", one))
	res.Table.AddRow("3000 models", fmt.Sprintf("%.2f MB", total3000))
	res.Metrics["model_bytes"] = float64(one)
	res.Metrics["bundle_mb"] = total3000
	_ = o
	return res, nil
}
