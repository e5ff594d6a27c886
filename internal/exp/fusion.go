package exp

import (
	"fmt"

	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/proccount"
	"gpuleak/internal/stats"
)

// The fusion experiment quantifies the channel plane's headline claim:
// a coarse OS-counter channel that cannot compete with KGSL on its own
// still buys accuracy when the KGSL sampler is being starved, because
// the two channels fail independently. Each trial eavesdrops one victim
// session three ways — KGSL alone (through a fault plane), proccount
// alone (unwrapped: /proc reads do not cross the KGSL ioctl path the
// profiles model), and decision-level fusion of the two — under every
// predefined fault profile. A failed KGSL leg is a fatal trial.

// RunFusion is the registry entry point: per fault profile, per-channel
// and fused accuracy. The fusion.win metric is the char-accuracy margin
// of fusion over the best single channel on the starve profile — the
// scenario the channel plane exists for — and
// TestFusionBeatsBestSingleChannel requires it to exceed 0.01.
func RunFusion(o Options) (*Result, error) {
	cfg := DefaultConfig()
	pm, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	sm, err := TrainModel(o.Context(), cfg, o.Workers, proccount.Name)
	if err != nil {
		return nil, err
	}
	profiles := fault.Profiles()
	trials := o.Trials(40)
	textLen := 8
	sessions := typing(fusedTrial(cfg, pm, sm), LowerDigits, textLen, trials,
		input.Volunteers[0], input.SpeedAny, o.Seed)
	recs, err := runTrials(o, underFaults(sessions, profiles, o.Seed))
	if err != nil {
		return nil, err
	}

	res := newResult("fusion", "Multi-channel fusion vs single channels under faults",
		"profile", "kgsl char", "proc char", "fused char", "kgsl text", "fused text", "recovered", "flipped")
	var win float64
	for pIdx, b := range blocks(recs, trials) {
		p := profiles[pIdx]
		var kgsl, proc, fused, truth []string
		recovered, flipped := 0, 0
		for _, r := range b {
			var kInf, pInf, fInf string
			switch {
			case r.out == nil:
				return nil, r.err
			case r.out.Legs[0].Err != nil:
				// A failed KGSL leg is a fatal trial: nothing inferred.
			case r.err != nil:
				return nil, r.err
			default:
				fr := r.out.Fusion
				kInf, pInf, fInf = fr.Primary.Text, fr.Secondary.Text, fr.Fused.Text
				recovered += fr.Recovered
				flipped += fr.Flipped
			}
			kgsl, proc, fused = append(kgsl, kInf), append(proc, pInf), append(fused, fInf)
			truth = append(truth, r.truth)
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
