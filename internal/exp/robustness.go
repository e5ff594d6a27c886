package exp

import (
	"context"
	"fmt"

	"gpuleak/internal/attack"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/parallel"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
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

// chaosTrial is one (profile, trial) outcome.
type chaosTrial struct {
	inferred, truth string
	degraded        bool
	fatal           bool
	injected        fault.InjectedStats
	recovery        attack.CollectStats
	gaps, resyncs   int
	baselineOK      bool
}

// chaosOnce eavesdrops one victim session through a fault plane. For the
// "none" profile it additionally replays the identical session through
// the raw device with the legacy no-retry policy and verifies the two
// results agree — the passthrough byte-identity the golden tests pin.
func chaosOnce(ctx context.Context, cfg victim.Config, m *attack.Model, text string,
	p fault.Profile, faultSeed, seed int64) (chaosTrial, error) {

	session := func() *victim.Session {
		c := cfg
		c.Seed = seed
		sess := victim.New(c)
		sess.Run(input.Typing(text, input.Volunteers[0], input.SpeedAny,
			sim.NewRand(seed^0x5DEECE66D), 700*sim.Millisecond))
		return sess
	}

	sess := session()
	out := chaosTrial{baselineOK: true, truth: sess.TypedText()}
	run, err := attack.Pipeline{Legs: []attack.Leg{{Model: m}}, Fault: p, FaultSeed: faultSeed}.
		Run(ctx, sess, 0, sess.End, nil)
	if run == nil {
		return out, err
	}
	out.injected = run.Legs[0].Injected
	if err != nil {
		if ctx.Err() != nil {
			return out, err
		}
		// The fault plane beat the retry policy: record the loss, keep the
		// experiment going — availability failures are a result, not an
		// experiment error.
		out.fatal = true
		return out, nil
	}
	res := run.Result
	out.inferred = res.Text
	out.degraded = res.Degraded
	out.recovery = res.Recovery
	out.gaps = res.Stats.Gaps
	out.resyncs = res.Stats.Resyncs

	if p.IsZero() {
		// Passthrough check: the wrapped run must equal the raw legacy run
		// in every observable.
		rawSess := session()
		f, err := rawSess.Open()
		if err != nil {
			return out, err
		}
		raw, err := attack.New(m).EavesdropContext(ctx, f, 0, rawSess.End)
		if err != nil {
			return out, fmt.Errorf("exp: chaos baseline raw run: %w", err)
		}
		out.baselineOK = res.Text == raw.Text &&
			res.Stats == raw.Stats &&
			len(res.Keys) == len(raw.Keys) &&
			res.EstimatedLength == raw.EstimatedLength &&
			!res.Degraded && !raw.Degraded
	}
	return out, nil
}

// runChaosProfiles eavesdrops trials×len(profiles) sessions and builds
// the gpuleak-chaos/v1 report. The model is trained (or fetched) once;
// trials fan out across o.Workers with per-trial seeds derived from
// (o.Seed, profile index, trial index), so the report is bit-identical
// at any worker count.
func runChaosProfiles(o Options, profiles []fault.Profile, trials int) (*ChaosReport, error) {
	const textLen = 8
	cfg := DefaultConfig()
	m, err := TrainModel(cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}

	// Same texts for every profile: trial i types texts[i] under each
	// profile, so per-profile accuracy is comparable.
	rng := sim.NewRand(o.Seed)
	texts := make([]string, trials)
	for i := range texts {
		texts[i] = input.RandomText(rng, LowerDigits, textLen)
	}

	n := len(profiles) * trials
	slots := make([]chaosTrial, n)
	err = parallel.ForEachCtx(o.Context(), o.Workers, n, func(i int) error {
		pIdx, trial := i/trials, i%trials
		t, err := chaosOnce(o.Context(), cfg, m, texts[trial], profiles[pIdx],
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

	rep := &ChaosReport{
		Schema: ChaosSchema, Seed: o.Seed, Trials: trials, TextLen: textLen,
	}
	sawNone := false
	baselineOK := true
	for pIdx, p := range profiles {
		pr := ChaosProfileResult{Profile: p.Name, Rate: p.Rate(), Trials: trials}
		var inferred, truth []string
		levSum := 0
		for trial := 0; trial < trials; trial++ {
			t := slots[pIdx*trials+trial]
			inferred = append(inferred, t.inferred)
			truth = append(truth, t.truth)
			levSum += stats.Levenshtein(t.inferred, t.truth)
			if t.inferred == t.truth {
				pr.Exact++
			}
			if t.degraded {
				pr.Degraded++
			}
			if t.fatal {
				pr.Fatal++
			}
			pr.Injected.Add(t.injected)
			pr.Recovery.Add(t.recovery)
			pr.Gaps += t.gaps
			pr.Resyncs += t.resyncs
			if p.IsZero() {
				sawNone = true
				baselineOK = baselineOK && t.baselineOK
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
