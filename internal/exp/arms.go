package exp

import (
	"fmt"
	"slices"

	"gpuleak/internal/defense"
	"gpuleak/internal/input"
	"gpuleak/internal/proccount"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// The arms experiment runs the attack-vs-defense tournament: every
// registered defense, swept over strength levels, against the attack at
// full power — retry/resync machinery armed on both channels under every
// defense, plus decision-level kgsl+proccount fusion. Each (defense, strength) cell
// replays the same victim sessions as the undefended baseline, so the
// frontier reports paired accuracy drops, not sampling noise. The
// deliverable is the accuracy-vs-overhead frontier (gpuleak-arms/v1):
// which defenses buy how much attacker degradation at what platform
// cost.

// ArmsSchema identifies the tournament report's wire format.
const ArmsSchema = "gpuleak-arms/v1"

// ArmsReport is the gpuleak-arms/v1 JSON document: the tournament
// inputs, the undefended fused baseline, and one frontier point per
// (defense, strength). For a fixed seed the report is bit-identical at
// any worker count; the committed arms-report.json is the seed-1,
// 3-trial run.
type ArmsReport struct {
	Schema  string `json:"schema"`
	Seed    int64  `json:"seed"`
	Trials  int    `json:"trials"`
	TextLen int    `json:"text_len"`
	// Strengths is the sweep grid every defense was evaluated on.
	Strengths []float64 `json:"strengths"`
	// Baseline is the undefended fused attack on the same sessions
	// (strength 0, overhead 0) — the frontier's origin.
	Baseline ArmsPoint `json:"baseline"`
	// Defenses holds one frontier row per defense, in name order.
	Defenses []ArmsDefenseResult `json:"defenses"`
}

// ArmsDefenseResult is one defense's row of the frontier.
type ArmsDefenseResult struct {
	// Defense is the registry name ("quantize", or a "+"-joined chain).
	Defense string `json:"defense"`
	// Doc is the defense's one-line mechanism description.
	Doc string `json:"doc"`
	// Channels is the defense's applicability set.
	Channels []string `json:"channels"`
	// Points are the sweep results, one per strength in report order.
	Points []ArmsPoint `json:"points"`
}

// ArmsPoint is one (defense, strength) cell of the tournament.
type ArmsPoint struct {
	// Strength is the defense knob in [0, 1]; 0 marks the baseline.
	Strength float64 `json:"strength"`
	// Overhead is the defense's reported platform cost estimate.
	Overhead float64 `json:"overhead"`
	// CharAcc and TextAcc score the fused attacker against ground truth.
	CharAcc float64 `json:"char_acc"`
	TextAcc float64 `json:"text_acc"`
	// KGSLCharAcc and ProcCharAcc score the single channels before
	// fusion, locating which channel the defense actually hurt.
	KGSLCharAcc float64 `json:"kgsl_char_acc"`
	ProcCharAcc float64 `json:"proc_char_acc"`
	// Drop is the fused char-accuracy reduction vs the baseline — the
	// frontier's y-axis.
	Drop float64 `json:"drop"`
	// Blocked counts trials whose KGSL collection failed outright (the
	// defense cost availability, not just accuracy); the fused attacker
	// falls back to the surviving channel in those trials.
	Blocked int `json:"blocked,omitempty"`
	// Degraded counts trials where the sampler's recovery machinery
	// fired; Recovered and Flipped total the fusion rule activations.
	Degraded  int `json:"degraded,omitempty"`
	Recovered int `json:"recovered,omitempty"`
	Flipped   int `json:"flipped,omitempty"`
}

// runArmsTournament sweeps every defense over the strength grid, trials
// victim sessions per cell plus the shared undefended baseline, fanned
// out over o.Workers. Every session, credential and defense seed derives
// from the cell and trial indices, so the report is bit-identical at any
// worker count.
func runArmsTournament(o Options, trials int) (*ArmsReport, error) {
	const textLen = 8
	names, strengths := defense.Names(), []float64{0.25, 0.5, 1}
	pols := make([]defense.Policy, len(names))
	for i, name := range names {
		p, err := defense.Get(name)
		if err != nil {
			return nil, err
		}
		pols[i] = p
	}

	cfg := DefaultConfig()
	pm, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	sm, err := TrainModel(o.Context(), cfg, o.Workers, proccount.Name)
	if err != nil {
		return nil, err
	}
	// The shared undefended baseline block first, then one block per
	// (defense, strength) cell. Every block replays the same victim
	// sessions; defense seeds derive from the trial's index.
	sessions := typing(fusedTrial(cfg, pm, sm), LowerDigits, textLen, trials,
		input.Volunteers[0], input.SpeedAny, o.Seed)
	all := slices.Clone(sessions)
	for _, pol := range pols {
		for _, strength := range strengths {
			for _, t := range sessions {
				defSeed := defense.Seed(o.Seed, len(all))
				t.arm = func(s *victim.Session) (defense.Instance, error) { return pol.Arm(s, strength, defSeed) }
				all = append(all, t)
			}
		}
	}
	recs, err := runTrials(o, all)
	if err != nil {
		return nil, err
	}
	cells := blocks(recs, trials)

	// score reduces one block: a failed KGSL leg is a blocked trial, and
	// the fused attacker falls back to whichever channel survived.
	score := func(b []record, strength, overhead, baseChar float64) (ArmsPoint, error) {
		var kgsl, proc, fused, truth []string
		pt := ArmsPoint{Strength: strength, Overhead: overhead}
		for _, r := range b {
			if r.out == nil {
				return pt, r.err
			}
			pri, sec := r.out.Legs[0], r.out.Legs[1]
			var kInf, pInf, fInf string
			if pri.Err == nil {
				kInf = pri.Result.Text
				if pri.Stats.Degraded() {
					pt.Degraded++
				}
			} else {
				pt.Blocked++
			}
			if sec.Err == nil {
				pInf = sec.Result.Text
			}
			switch {
			case r.out.Fusion != nil:
				fInf = r.out.Fusion.Fused.Text
				pt.Recovered += r.out.Fusion.Recovered
				pt.Flipped += r.out.Fusion.Flipped
			case pri.Err == nil:
				fInf = kInf
			case sec.Err == nil:
				fInf = pInf
			}
			kgsl, proc, fused = append(kgsl, kInf), append(proc, pInf), append(fused, fInf)
			truth = append(truth, r.truth)
		}
		pt.CharAcc = stats.CharAccuracy(fused, truth)
		pt.TextAcc = stats.TextAccuracy(fused, truth)
		pt.KGSLCharAcc = stats.CharAccuracy(kgsl, truth)
		pt.ProcCharAcc = stats.CharAccuracy(proc, truth)
		pt.Drop = baseChar - pt.CharAcc
		return pt, nil
	}

	rep := &ArmsReport{
		Schema: ArmsSchema, Seed: o.Seed, Trials: trials, TextLen: textLen,
		Strengths: strengths,
	}
	if rep.Baseline, err = score(cells[0], 0, 0, 0); err != nil {
		return nil, err
	}
	rep.Baseline.Drop = 0
	for di, pol := range pols {
		row := ArmsDefenseResult{
			Defense:  pol.Name(),
			Doc:      pol.Doc(),
			Channels: pol.Channels(),
		}
		for si, s := range strengths {
			pt, err := score(cells[1+di*len(strengths)+si], s, pol.Overhead(s), rep.Baseline.CharAcc)
			if err != nil {
				return nil, err
			}
			row.Points = append(row.Points, pt)
		}
		rep.Defenses = append(rep.Defenses, row)
	}
	return rep, nil
}

// RunArms is the registry entry point: the quick-scale tournament over
// every defense. The arms.best_drop metric is the largest fused
// char-accuracy reduction bought at ≤ 10% reported overhead — the
// headline TestArmsFrontierShape asserts on the committed frontier.
func RunArms(o Options) (*Result, error) {
	rep, err := runArmsTournament(o, o.Trials(30))
	if err != nil {
		return nil, err
	}
	res := newResult("arms", "Attack-vs-defense tournament: accuracy-vs-overhead frontier",
		"defense", "strength", "overhead", "fused char", "kgsl char", "proc char", "drop", "blocked")
	res.Table.AddRow("(baseline)", "0", "0",
		fmt.Sprintf("%.1f%%", 100*rep.Baseline.CharAcc),
		fmt.Sprintf("%.1f%%", 100*rep.Baseline.KGSLCharAcc),
		fmt.Sprintf("%.1f%%", 100*rep.Baseline.ProcCharAcc),
		"", fmt.Sprintf("%d", rep.Baseline.Blocked))
	res.Metrics["arms.char_acc.baseline"] = rep.Baseline.CharAcc
	best := 0.0
	for _, d := range rep.Defenses {
		for _, pt := range d.Points {
			res.Table.AddRow(d.Defense,
				fmt.Sprintf("%g", pt.Strength),
				fmt.Sprintf("%.3f", pt.Overhead),
				fmt.Sprintf("%.1f%%", 100*pt.CharAcc),
				fmt.Sprintf("%.1f%%", 100*pt.KGSLCharAcc),
				fmt.Sprintf("%.1f%%", 100*pt.ProcCharAcc),
				fmt.Sprintf("%+.1f%%", -100*pt.Drop),
				fmt.Sprintf("%d", pt.Blocked))
			res.Metrics[fmt.Sprintf("arms.char_acc.%s.%g", d.Defense, pt.Strength)] = pt.CharAcc
			if pt.Overhead <= 0.10 && pt.Drop > best {
				best = pt.Drop
			}
		}
	}
	res.Metrics["arms.best_drop"] = best
	return res, nil
}
