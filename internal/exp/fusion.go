package exp

import (
	"fmt"

	"gpuleak/internal/attack"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/parallel"
	"gpuleak/internal/proccount"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// The fusion experiment quantifies the channel plane's headline claim:
// a coarse OS-counter channel that cannot compete with KGSL on its own
// still buys accuracy when the KGSL sampler is being starved, because
// the two channels fail independently. Each trial eavesdrops one victim
// session three ways — KGSL alone (through a fault plane), proccount
// alone (unwrapped: /proc reads do not cross the KGSL ioctl path the
// profiles model), and decision-level fusion of the two — under every
// predefined fault profile.

// fusionTrial is one (profile, trial) outcome across the three readers.
type fusionTrial struct {
	kgsl, proc, fused, truth string
	recovered, flipped       int
	fatal                    bool
}

// fusionOnce runs one session through all three readers: the pipeline's
// KGSL leg sits under the fault plane, the proccount leg does not. A
// failed KGSL leg is a fatal trial.
func fusionOnce(o Options, cfg victim.Config, pm, sm *attack.Model,
	text string, p fault.Profile, faultSeed, seed int64) (fusionTrial, error) {

	c := cfg
	c.Seed = seed
	sess := victim.New(c)
	sess.Run(input.Typing(text, input.Volunteers[0], input.SpeedAny,
		sim.NewRand(seed^0x5DEECE66D), 700*sim.Millisecond))
	out := fusionTrial{truth: sess.TypedText()}

	run, err := attack.Pipeline{
		Legs:      []attack.Leg{{Model: pm}, {Channel: proccount.Name, Model: sm}},
		Fault:     p,
		FaultSeed: faultSeed,
	}.Run(o.Context(), sess, 0, sess.End, nil)
	if run == nil || (err != nil && o.Context().Err() != nil) {
		return out, err
	}
	if run.Legs[0].Err != nil {
		out.fatal = true
		return out, nil
	}
	if err != nil {
		return out, err
	}
	fr := run.Fusion
	out.kgsl = fr.Primary.Text
	out.proc = fr.Secondary.Text
	out.fused = fr.Fused.Text
	out.recovered = fr.Recovered
	out.flipped = fr.Flipped
	return out, nil
}

// RunFusion is the registry entry point: per fault profile, per-channel
// and fused accuracy. The fusion.win metric is the char-accuracy margin
// of fusion over the best single channel on the starve profile — the
// scenario the channel plane exists for — and
// TestFusionBeatsBestSingleChannel requires it to exceed 0.01.
func RunFusion(o Options) (*Result, error) {
	cfg := DefaultConfig()
	pm, err := TrainModel(cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	sm, err := TrainModel(cfg, o.Workers, proccount.Name)
	if err != nil {
		return nil, err
	}
	profiles := fault.Profiles()
	trials := o.Trials(40)
	textLen := 8

	rng := sim.NewRand(o.Seed)
	texts := make([]string, trials)
	for i := range texts {
		texts[i] = input.RandomText(rng, LowerDigits, textLen)
	}

	n := len(profiles) * trials
	slots := make([]fusionTrial, n)
	err = parallel.ForEachCtx(o.Context(), o.Workers, n, func(i int) error {
		pIdx, trial := i/trials, i%trials
		t, err := fusionOnce(o, cfg, pm, sm, texts[trial], profiles[pIdx],
			fault.Seed(o.Seed, i), o.Seed+int64(trial)*101)
		if err != nil {
			return err
		}
		slots[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := newResult("fusion", "Multi-channel fusion vs single channels under faults",
		"profile", "kgsl char", "proc char", "fused char", "kgsl text", "fused text", "recovered", "flipped")
	var win float64
	for pIdx, p := range profiles {
		var kgsl, proc, fused, truth []string
		recovered, flipped := 0, 0
		for trial := 0; trial < trials; trial++ {
			t := slots[pIdx*trials+trial]
			kgsl = append(kgsl, t.kgsl)
			proc = append(proc, t.proc)
			fused = append(fused, t.fused)
			truth = append(truth, t.truth)
			recovered += t.recovered
			flipped += t.flipped
		}
		kc := stats.CharAccuracy(kgsl, truth)
		pc := stats.CharAccuracy(proc, truth)
		fc := stats.CharAccuracy(fused, truth)
		kt := stats.TextAccuracy(kgsl, truth)
		ft := stats.TextAccuracy(fused, truth)
		res.Table.AddRow(p.Name,
			fmt.Sprintf("%.1f%%", 100*kc),
			fmt.Sprintf("%.1f%%", 100*pc),
			fmt.Sprintf("%.1f%%", 100*fc),
			fmt.Sprintf("%.1f%%", 100*kt),
			fmt.Sprintf("%.1f%%", 100*ft),
			fmt.Sprintf("%d", recovered),
			fmt.Sprintf("%d", flipped))
		res.Metrics["fusion.char_acc.kgsl."+p.Name] = kc
		res.Metrics["fusion.char_acc.proccount."+p.Name] = pc
		res.Metrics["fusion.char_acc.fused."+p.Name] = fc
		res.Metrics["fusion.text_acc.kgsl."+p.Name] = kt
		res.Metrics["fusion.text_acc.fused."+p.Name] = ft
		if p.Name == fault.Starve.Name {
			best := kc
			if pc > best {
				best = pc
			}
			win = fc - best
		}
	}
	res.Metrics["fusion.win"] = win
	return res, nil
}
