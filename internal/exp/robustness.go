package exp

import (
	"fmt"
	"slices"

	"gpuleak/internal/attack"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/stats"
)

// ChaosSchema identifies the wire format of a chaos report.
const ChaosSchema = "gpuleak-chaos/v1"

// ChaosReport is the gpuleak-chaos/v1 recovery-rate report: one victim
// workload eavesdropped under every requested fault profile, with
// accuracy and recovery accounting per profile. For a fixed seed the
// report is bit-identical at any worker count — every trial's victim
// seed, text and fault schedule are pure functions of its index.
type ChaosReport struct {
	Schema string `json:"schema"`
	// Seed is the base seed every per-trial seed derives from.
	Seed int64 `json:"seed"`
	// Trials is the per-profile trial count and TextLen the credential
	// length; the same texts and victim seeds are reused across profiles
	// so accuracy differences are attributable to the fault plane alone.
	Trials  int `json:"trials"`
	TextLen int `json:"text_len"`
	// BaselineMatch reports that every "none"-profile trial, run through
	// the fault plane with the retry policy armed, produced a result
	// byte-identical to the raw library path — the passthrough guarantee.
	// False when the report includes no "none" profile.
	BaselineMatch bool `json:"baseline_match"`
	// Profiles holds one entry per requested profile, in request order.
	Profiles []ChaosProfileResult `json:"profiles"`
}

// ChaosProfileResult aggregates one fault profile's trials.
type ChaosProfileResult struct {
	Profile string `json:"profile"`
	// Rate is the profile's severity scalar (sum of fault probabilities).
	Rate   float64 `json:"rate"`
	Trials int     `json:"trials"`
	// Exact counts trials whose inferred text matched the truth exactly.
	Exact int `json:"exact"`
	// TextAccuracy / CharAccuracy / MeanLevenshtein score the inferred
	// credentials against ground truth (§7.1 metrics).
	TextAccuracy    float64 `json:"text_accuracy"`
	CharAccuracy    float64 `json:"char_accuracy"`
	MeanLevenshtein float64 `json:"mean_levenshtein"`
	// Degraded counts trials that recovered from at least one fault;
	// Fatal counts trials the retry policy could not save. A well-tuned
	// policy keeps Fatal at 0: faults cost accuracy, not availability.
	Degraded int `json:"degraded"`
	Fatal    int `json:"fatal"`
	// Injected sums what the fault plane actually injected across the
	// profile's trials; Recovery sums the sampler's recovery work. Gaps
	// and Resyncs count the engine's gap-segmentation decisions.
	Injected fault.InjectedStats `json:"injected"`
	Recovery attack.CollectStats `json:"recovery"`
	Gaps     int                 `json:"gaps"`
	Resyncs  int                 `json:"resyncs"`
}

// underFaults replays sessions once per profile, in profile order: the
// (profile, trial) pair at index i of the result draws its fault
// schedule from fault.Seed(seed, i).
func underFaults(sessions []trial, profiles []fault.Profile, seed int64) []trial {
	var out []trial
	for _, p := range profiles {
		for _, t := range sessions {
			t.fault, t.faultSeed = p, fault.Seed(seed, len(out))
			out = append(out, t)
		}
	}
	return out
}

// runChaosProfiles eavesdrops trials sessions under every profile and
// builds the gpuleak-chaos/v1 report. The model is trained (or fetched)
// once; every seed derives from o.Seed and the trial's index, so the
// report is bit-identical at any worker count. When a profile has a zero
// rate, the same sessions also run once unfaulted, through the plain
// library path, and BaselineMatch compares that block with the
// profile's.
func runChaosProfiles(o Options, profiles []fault.Profile, trials int) (*ChaosReport, error) {
	const textLen = 8
	cfg := DefaultConfig()
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}

	// Same texts and victims for every profile: trial i types the same
	// credential under each profile, so per-profile accuracy is
	// comparable.
	sessions := typing(kgslTrial(cfg, m), LowerDigits, textLen, trials, input.Volunteers[0], input.SpeedAny, o.Seed)
	all := underFaults(sessions, profiles, o.Seed)
	sawNone := slices.ContainsFunc(profiles, fault.Profile.IsZero)
	if sawNone {
		all = append(all, sessions...)
	}
	recs, err := runTrials(o, all)
	if err != nil {
		return nil, err
	}
	raw := recs[len(profiles)*trials:]

	rep := &ChaosReport{
		Schema: ChaosSchema, Seed: o.Seed, Trials: trials, TextLen: textLen,
	}
	baselineOK := true
	for pIdx, b := range blocks(recs[:len(profiles)*trials], trials) {
		p := profiles[pIdx]
		pr := ChaosProfileResult{Profile: p.Name, Rate: p.Rate(), Trials: trials}
		var inferred, truth []string
		levSum := 0
		for i, r := range b {
			if r.out == nil {
				return nil, r.err
			}
			pr.Injected.Add(r.out.Legs[0].Injected)
			inf := ""
			if r.err != nil {
				// The fault plane beat the retry policy: availability
				// failures are a result, not an experiment error.
				pr.Fatal++
			} else {
				res := r.out.Result
				inf = res.Text
				if res.Degraded {
					pr.Degraded++
				}
				pr.Recovery.Add(res.Recovery)
				pr.Gaps += res.Stats.Gaps
				pr.Resyncs += res.Stats.Resyncs
				if p.IsZero() {
					// Passthrough check: the wrapped run must equal the
					// raw library run in every observable.
					if raw[i].err != nil {
						return nil, fmt.Errorf("exp: chaos baseline raw run: %w", raw[i].err)
					}
					rr := raw[i].out.Result
					baselineOK = baselineOK && res.Text == rr.Text &&
						res.Stats == rr.Stats &&
						len(res.Keys) == len(rr.Keys) &&
						res.EstimatedLength == rr.EstimatedLength &&
						!res.Degraded && !rr.Degraded
				}
			}
			inferred = append(inferred, inf)
			truth = append(truth, r.truth)
			levSum += stats.Levenshtein(inf, r.truth)
			if inf == r.truth {
				pr.Exact++
			}
		}
		pr.TextAccuracy = stats.TextAccuracy(inferred, truth)
		pr.CharAccuracy = stats.CharAccuracy(inferred, truth)
		pr.MeanLevenshtein = float64(levSum) / float64(trials)
		rep.Profiles = append(rep.Profiles, pr)
	}
	rep.BaselineMatch = sawNone && baselineOK
	return rep, nil
}

// RunChaos is the registry entry point: every predefined profile at
// quick-scaled trial counts, reported as a table plus chaos.* metrics.
func RunChaos(o Options) (*Result, error) {
	rep, err := runChaosProfiles(o, fault.Profiles(), o.Trials(40))
	if err != nil {
		return nil, err
	}
	res := newResult("chaos", "Recovery under injected device faults",
		"profile", "rate", "text acc", "char acc", "mean lev", "degraded", "fatal", "injected", "retries", "gaps")
	for _, pr := range rep.Profiles {
		res.Table.AddRow(pr.Profile,
			fmt.Sprintf("%.3f", pr.Rate),
			fmt.Sprintf("%.1f%%", 100*pr.TextAccuracy),
			fmt.Sprintf("%.1f%%", 100*pr.CharAccuracy),
			fmt.Sprintf("%.2f", pr.MeanLevenshtein),
			fmt.Sprintf("%d/%d", pr.Degraded, pr.Trials),
			fmt.Sprintf("%d", pr.Fatal),
			fmt.Sprintf("%d", pr.Injected.Total()),
			fmt.Sprintf("%d", pr.Recovery.Retries),
			fmt.Sprintf("%d", pr.Gaps+pr.Resyncs))
		res.Metrics["chaos.text_acc."+pr.Profile] = pr.TextAccuracy
		res.Metrics["chaos.char_acc."+pr.Profile] = pr.CharAccuracy
		res.Metrics["chaos.fatal."+pr.Profile] = float64(pr.Fatal)
		res.Metrics["chaos.injected."+pr.Profile] = float64(pr.Injected.Total())
	}
	if rep.BaselineMatch {
		res.Metrics["chaos.baseline_match"] = 1
	} else {
		res.Metrics["chaos.baseline_match"] = 0
	}
	return res, nil
}
