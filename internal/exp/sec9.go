package exp

import (
	"fmt"

	"gpuleak/internal/attack"
	"gpuleak/internal/defense"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// RunSec9Defenses reproduces the paper's §9 defense discussion as one
// matrix: each defense's effect on credential recovery, the residual
// input-length leak the paper highlights for popup disabling (§9.1), and
// the GPU cost of the §9.3 obfuscation amplitudes.
func RunSec9Defenses(o Options) (*Result, error) {
	res := newResult("sec9", "§9: defense matrix",
		"defense", "text acc", "char acc", "length leak", "note")

	base := DefaultConfig()
	m, err := TrainModel(o.Context(), base, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(80)

	// Every row replays the same sessions under its defense: a config
	// change, or a device hook armed on the simulated session. The hooks
	// return no probe wrap, so the attack samples without retries, as
	// against an undefended device.
	type row struct {
		label, note string
		mut         func(*victim.Config)
		arm         func(*victim.Session) (defense.Instance, error)
		metric      string // the row's text accuracy under a second name
	}
	rows := []row{
		{label: "none"},
		// §9.1 popup disabling: credentials protected, length still leaks.
		{label: "popups disabled", note: "length still leaks (§9.1)",
			mut: func(c *victim.Config) { c.DisablePopups = true }},
		// §9.3 password manager / autofill: one fill frame.
		{label: "autofill", note: "first-time entry still typed",
			mut: func(c *victim.Config) { c.Autofill = true }},
		// §9.2 RBAC via the SELinux ioctl whitelist (the shipped fix).
		{label: "SELinux ioctl whitelist", note: "PERFCOUNTER_READ denied",
			arm: func(s *victim.Session) (defense.Instance, error) {
				s.Device.SetPolicy(defense.NewGooglePatchPolicy())
				return nil, nil
			}},
	}
	// §9.3 obfuscation sweep: accuracy falls as amplitude (and GPU cost)
	// rises — the paper's open tuning question.
	for _, amp := range []float64{0.0005, 0.002, 0.01} {
		obf := &defense.NoiseObfuscator{Amplitude: amp, Seed: 31}
		rows = append(rows, row{label: fmt.Sprintf("obfuscation x%.4f", amp),
			note: fmt.Sprintf("GPU cost ~%.2f%%", 100*obf.GPUCostFraction()),
			arm: func(s *victim.Session) (defense.Instance, error) {
				s.Device.SetObfuscator(obf)
				return nil, nil
			},
			metric: fmt.Sprintf("obf_%.4f_text", amp)})
	}

	var trials []trial
	for _, rw := range rows {
		rng := sim.NewRand(o.Seed + 9)
		for i := 0; i < per; i++ {
			t := kgslTrial(base, m)
			t.cfg.Seed = o.Seed + int64(i)*271
			if rw.mut != nil {
				rw.mut(&t.cfg)
			}
			t.script = input.Typing(input.RandomText(rng, LowerDigits, 8+rng.Intn(6)), input.Volunteers[i%5],
				input.SpeedAny, sim.NewRand(t.cfg.Seed^0x9), 700*sim.Millisecond)
			t.arm = rw.arm
			trials = append(trials, t)
		}
	}
	recs, err := runTrials(o, trials)
	if err != nil {
		return nil, err
	}

	for ri, b := range blocks(recs, per) {
		rw := rows[ri]
		// A defense that fails any trial blocks the attack.
		ta, blocked, lenHits := 0.0, false, 0
		for _, r := range b {
			if r.err != nil {
				blocked = true
				break
			}
			if r.out.Result.EstimatedLength == len([]rune(r.truth)) {
				lenHits++
			}
		}
		if blocked {
			res.Table.AddRow(rw.label, "blocked", "blocked", "blocked", rw.note)
			res.Metrics["blocked_"+rw.label] = 1
		} else {
			ta = stats.TextAccuracy(texts(b))
			lengthLeak := float64(lenHits) / float64(per)
			res.Table.AddRow(rw.label, stats.Pct(ta), stats.Pct(stats.CharAccuracy(texts(b))), stats.Pct(lengthLeak), rw.note)
			res.Metrics["length_"+rw.label] = lengthLeak
		}
		res.Metrics["text_"+rw.label] = ta
		if rw.metric != "" {
			res.Metrics[rw.metric] = ta
		}
	}

	// §9.1 malware detection: the attack's ioctl rate vs a normal GL
	// client's. The paper: thousands of calls per second are normal, so
	// the attack's ~125/s polling is unremarkable.
	attackRate := float64(sim.Second) / float64(attack.DefaultInterval)
	const normalDriverRate = 3000.0 // §9.1: "thousands of invocations per second"
	res.Table.AddRow("malware detection (§9.1)", "-", "-", "-",
		fmt.Sprintf("attack %d ioctl/s vs ~%d/s from a normal GL driver", int(attackRate), int(normalDriverRate)))
	res.Metrics["attack_ioctl_rate"] = attackRate
	res.Metrics["normal_ioctl_rate"] = normalDriverRate
	return res, nil
}
