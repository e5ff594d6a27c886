package exp

import (
	"bytes"
	"fmt"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
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

	var traceAccs, charAccs []float64
	for vi, vol := range input.Volunteers {
		inferred := make([]string, 0, per)
		truths := make([]string, 0, per)
		corrections := 0
		for si := 0; si < per; si++ {
			cfg := DefaultConfig()
			cfg.App = apps[(vi*per+si)%len(apps)]
			m, err := TrainModel(cfg, o.Workers, "")
			if err != nil {
				return nil, err
			}
			seed := o.Seed + int64(vi)*70001 + int64(si)*733
			rng := sim.NewRand(seed)
			text := input.RandomText(rng, LowerDigits, 8+rng.Intn(9))
			cfg.Seed = seed
			sess := victim.New(cfg)
			script := input.Practical(text, vol, input.DefaultPracticalOptions(), rng, 700*sim.Millisecond)
			sess.Run(script)
			f, err := sess.Open()
			if err != nil {
				return nil, err
			}
			atk := attack.New(m)
			r, err := atk.Eavesdrop(f, 0, sess.End)
			if err != nil {
				return nil, err
			}
			inferred = append(inferred, r.Text)
			truths = append(truths, sess.TypedText())
			corrections += r.Stats.Corrections
		}
		ta := stats.TextAccuracy(inferred, truths)
		ca := stats.CharAccuracy(inferred, truths)
		res.Table.AddRow(input.Volunteers[vi].Name, stats.Pct(ta), stats.Pct(ca), fmt.Sprintf("%d", corrections))
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
	mBase, err := TrainModel(base, o.Workers, "")
	if err != nil {
		return nil, err
	}
	bb, err := RunBatch(o, base, mBase, LowerDigits, 10, per, input.Volunteers[0],
		input.SpeedAny, attack.DefaultInterval, attack.OnlineOptions{}, o.Seed+291)
	if err != nil {
		return nil, err
	}
	res.Table.AddRow("none (Chase)", stats.Pct(bb.TextAccuracy()), stats.Pct(bb.CharAccuracy()), "")
	res.Metrics["baseline_text"] = bb.TextAccuracy()

	// PNC: decorative login animation. The attacker trains on PNC too —
	// the animation still interferes because its frames continuously
	// perturb the counters.
	pnc := DefaultConfig()
	pnc.App = android.PNC
	mPNC, err := TrainModel(pnc, o.Workers, "")
	if err != nil {
		return nil, err
	}
	pb, err := RunBatch(o, pnc, mPNC, LowerDigits, 10, per, input.Volunteers[1],
		input.SpeedAny, attack.DefaultInterval, attack.OnlineOptions{}, o.Seed+292)
	if err != nil {
		return nil, err
	}
	res.Table.AddRow("PNC login animation", stats.Pct(pb.TextAccuracy()), stats.Pct(pb.CharAccuracy()), "app-side")
	res.Metrics["pnc_text"] = pb.TextAccuracy()
	res.Metrics["pnc_char"] = pb.CharAccuracy()
	return res, nil
}

// RunModelSize reproduces the §7.6 storage accounting: the size of one
// serialized classification model and the footprint of a 3,000-model
// bundle (100 phones x 15 keyboards x 2 resolutions). Paper: 3.59 kB per
// model, at most 13.40 MB total.
func RunModelSize(o Options) (*Result, error) {
	res := newResult("modelsize", "§7.6: classification model storage",
		"quantity", "value")

	m, err := TrainModel(DefaultConfig(), o.Workers, "")
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
