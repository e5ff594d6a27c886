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
	m, err := TrainModel(base, o.Workers, "")
	if err != nil {
		return nil, err
	}
	per := o.Trials(80)

	type outcome struct {
		text, char, lengthLeak float64
		blocked                bool
	}
	run := func(mut func(*victim.Config), defend func(*victim.Session)) (outcome, error) {
		rng := sim.NewRand(o.Seed + 9)
		var inferred, truths []string
		lenHits, lenTotal := 0, 0
		for i := 0; i < per; i++ {
			cfg := base
			cfg.Seed = o.Seed + int64(i)*271
			if mut != nil {
				mut(&cfg)
			}
			text := input.RandomText(rng, LowerDigits, 8+rng.Intn(6))
			sess := victim.New(cfg)
			sess.Run(input.Typing(text, input.Volunteers[i%5], input.SpeedAny,
				sim.NewRand(cfg.Seed^0x9), 700*sim.Millisecond))
			if defend != nil {
				defend(sess)
			}
			f, err := sess.Open()
			if err != nil {
				return outcome{blocked: true}, nil
			}
			atk := attack.New(m)
			r, err := atk.Eavesdrop(f, 0, sess.End)
			if err != nil {
				return outcome{blocked: true}, nil
			}
			truth := sess.TypedText()
			inferred = append(inferred, r.Text)
			truths = append(truths, truth)
			lenTotal++
			if r.EstimatedLength == len([]rune(truth)) {
				lenHits++
			}
		}
		return outcome{
			text:       stats.TextAccuracy(inferred, truths),
			char:       stats.CharAccuracy(inferred, truths),
			lengthLeak: float64(lenHits) / float64(lenTotal),
		}, nil
	}

	addRow := func(label string, oc outcome, note string) {
		if oc.blocked {
			res.Table.AddRow(label, "blocked", "blocked", "blocked", note)
			res.Metrics["text_"+label] = 0
			res.Metrics["blocked_"+label] = 1
			return
		}
		res.Table.AddRow(label, stats.Pct(oc.text), stats.Pct(oc.char), stats.Pct(oc.lengthLeak), note)
		res.Metrics["text_"+label] = oc.text
		res.Metrics["length_"+label] = oc.lengthLeak
	}

	// Baseline.
	oc, err := run(nil, nil)
	if err != nil {
		return nil, err
	}
	addRow("none", oc, "")

	// §9.1 popup disabling: credentials protected, length still leaks.
	oc, err = run(func(c *victim.Config) { c.DisablePopups = true }, nil)
	if err != nil {
		return nil, err
	}
	addRow("popups disabled", oc, "length still leaks (§9.1)")

	// §9.3 password manager / autofill: one fill frame.
	oc, err = run(func(c *victim.Config) { c.Autofill = true }, nil)
	if err != nil {
		return nil, err
	}
	addRow("autofill", oc, "first-time entry still typed")

	// §9.2 RBAC via the SELinux ioctl whitelist (the shipped fix).
	oc, err = run(nil, func(s *victim.Session) {
		s.Device.SetPolicy(defense.NewGooglePatchPolicy())
	})
	if err != nil {
		return nil, err
	}
	addRow("SELinux ioctl whitelist", oc, "PERFCOUNTER_READ denied")

	// §9.3 obfuscation sweep: accuracy falls as amplitude (and GPU cost)
	// rises — the paper's open tuning question.
	for _, amp := range []float64{0.0005, 0.002, 0.01} {
		amp := amp
		obf := &defense.NoiseObfuscator{Amplitude: amp, Seed: 31}
		oc, err = run(nil, func(s *victim.Session) { s.Device.SetObfuscator(obf) })
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("obfuscation x%.4f", amp)
		addRow(label, oc, fmt.Sprintf("GPU cost ~%.2f%%", 100*obf.GPUCostFraction()))
		res.Metrics[fmt.Sprintf("obf_%.4f_text", amp)] = oc.text
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
