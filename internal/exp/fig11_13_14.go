package exp

import (
	"fmt"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// RunFig11 reproduces the §5.1 system-factor census (illustrated in
// Figure 11): over thousands of key presses, how many exhibit
// duplication, split, or system noise. The paper reports 633 duplication,
// 316 split and 21 high-noise cases over 3,485 presses (≈28% affected).
func RunFig11(o Options) (*Result, error) {
	res := newResult("fig11", "Figure 11 / §5.1: system factors over many key presses",
		"presses", "duplication", "split", "noise-affected", "affected%")

	cfg := DefaultConfig()
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	// Every lowercase-and-digit press is typed, so each text adds perText
	// presses: the census types the fewest texts that reach the target.
	target := o.Trials(3485)
	perText := 20
	rng := sim.NewRand(o.Seed + 11)
	trials := make([]trial, (target+perText-1)/perText)
	for i := range trials {
		t := kgslTrial(cfg, m)
		t.cfg.Seed = o.Seed + int64(i)*977
		t.script = typeText(input.RandomText(rng, LowerDigits, perText), input.Volunteers[i%5],
			input.SpeedAny, t.cfg.Seed)
		trials[i] = t
	}
	recs, err := runAll(o, trials)
	if err != nil {
		return nil, err
	}
	var presses, dups, splits int
	var unexplained attack.EngineStats // Unknown and Recombined over every trial
	for _, r := range recs {
		st := r.out.Result.Stats
		presses += len([]rune(r.truth))
		dups += st.Duplicates
		splits += st.Splits
		unexplained.Unknown += st.Unknown
		unexplained.Recombined += st.Recombined
	}
	noise := unexplained.Residual() // §5.1 system noise: changes never explained
	affected := float64(dups+splits+noise) / float64(presses)
	res.Table.AddRow(fmt.Sprintf("%d", presses), fmt.Sprintf("%d", dups),
		fmt.Sprintf("%d", splits), fmt.Sprintf("%d", noise),
		fmt.Sprintf("%.1f%%", 100*affected))
	res.Metrics["presses"] = float64(presses)
	res.Metrics["duplication"] = float64(dups)
	res.Metrics["split"] = float64(splits)
	res.Metrics["noise"] = float64(noise)
	res.Metrics["affected_frac"] = affected
	res.Metrics["dup_rate"] = float64(dups) / float64(presses)
	res.Metrics["split_rate"] = float64(splits) / float64(presses)
	return res, nil
}

// RunFig13 reproduces Figure 13: app switches produce dense bursts of
// large counter changes (inter-change gaps well under 50 ms) that the
// §5.2 detector recognizes, so foreign-app input is never mistaken for
// target-app typing.
func RunFig13(o Options) (*Result, error) {
	res := newResult("fig13", "Figure 13 / §5.2: app-switch burst detection",
		"scenario", "switch-bursts-detected", "keys-inferred", "keys-true")

	cfg := DefaultConfig()
	m, err := TrainModel(o.Context(), cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	cfg.Seed = o.Seed + 13
	sess := victim.New(cfg)
	script := input.Script{Events: []input.Event{
		{Kind: input.EvPress, R: 'u', At: 700 * sim.Millisecond, Dur: 90 * sim.Millisecond},
		{Kind: input.EvPress, R: 's', At: 1200 * sim.Millisecond, Dur: 90 * sim.Millisecond},
		{Kind: input.EvPress, R: 'e', At: 1700 * sim.Millisecond, Dur: 90 * sim.Millisecond},
		{Kind: input.EvSwitchAway, At: 2500 * sim.Millisecond},
		{Kind: input.EvSwitchBack, At: 7 * sim.Second},
		{Kind: input.EvPress, R: 'r', At: 8 * sim.Second, Dur: 90 * sim.Millisecond},
		{Kind: input.EvPress, R: '1', At: 8600 * sim.Millisecond, Dur: 90 * sim.Millisecond},
	}}
	sess.Run(script)
	f, err := sess.Open()
	if err != nil {
		return nil, err
	}
	// Fig 13 reads the session's frame timeline, which a trial record
	// does not keep, so it eavesdrops outside the trial runner.
	r, err := attack.New(m).EavesdropContext(o.Context(), f, 0, sess.End)
	if err != nil {
		return nil, err
	}

	// Measure the burst density around the switch (ground truth check).
	var gaps []float64
	var prev sim.Time
	inBurst := false
	for _, fr := range sess.GPU.Frames() {
		if fr.Start >= 2500*sim.Millisecond && fr.Start < 2800*sim.Millisecond {
			if inBurst {
				gaps = append(gaps, float64(fr.Start-prev)/1000)
			}
			prev = fr.Start
			inBurst = true
		}
	}
	maxGap := 0.0
	for _, g := range gaps {
		if g > maxGap {
			maxGap = g
		}
	}

	res.Table.AddRow("type, switch away 4.5s, return, type",
		fmt.Sprintf("%d", r.Stats.Switches), fmt.Sprintf("%d", len(r.Keys)), "5")
	res.Metrics["switches_detected"] = float64(r.Stats.Switches)
	res.Metrics["burst_max_gap_ms"] = maxGap
	res.Metrics["edit_distance"] = float64(stats.Levenshtein(r.Text, "user1"))
	// No foreign-app key may be inferred: everything recovered must come
	// from the target credential.
	res.Metrics["foreign_keys"] = float64(len(r.Keys) - (5 - stats.Levenshtein(r.Text, "user1")))
	return res, nil
}

// RunFig14 reproduces Figure 14: the PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ
// counter increases by exactly 2 per typed character and decreases by 2
// per deletion, while cursor blinks are recognizable by their strict
// 0.5 s period.
func RunFig14(o Options) (*Result, error) {
	res := newResult("fig14", "Figure 14 / §5.3: input length tracking via echo redraws",
		"event", "echo prim delta", "step")

	comp := android.NewCompositor(android.OnePlus8Pro, android.FHDPlus, 60,
		android.Chase, keyboard.GBoard)

	// 3 letter inputs followed by 2 deletions, as in the figure.
	seq := []int{1, 2, 3, 2, 1}
	labels := []string{"input#1", "input#2", "input#3", "delete#1", "delete#2"}
	prev := -1.0
	okSteps := 0
	for i, n := range seq {
		st := comp.EchoStats(n, false)
		v := float64(st.VisiblePrimAfterLRZ)
		step := ""
		if prev >= 0 {
			diff := v - prev
			step = fmt.Sprintf("%+.0f", diff)
			want := 2.0
			if i >= 3 {
				want = -2.0
			}
			if diff == want {
				okSteps++
			}
		}
		res.Table.AddRow(labels[i], fmt.Sprintf("%.0f", v), step)
		prev = v
	}
	res.Metrics["correct_steps"] = float64(okSteps)
	res.Metrics["want_steps"] = 4

	// Cursor blink periodicity: blink frames land on the 0.5 s grid.
	cfg := DefaultConfig()
	cfg.Seed = o.Seed + 14
	cfg.NotifPerMinute = -1
	sess := victim.New(cfg)
	sess.Run(input.Script{})
	blinkOnGrid := 0
	blinks := 0
	for _, fr := range sess.GPU.Frames() {
		if fr.Stats.VisiblePixelAfterLRZ < 3000 && fr.Stats.VisiblePixelAfterLRZ > 0 {
			blinks++
			phase := (fr.Start - sess.LaunchAt) % (500 * sim.Millisecond)
			if phase < 20*sim.Millisecond || phase > 480*sim.Millisecond {
				blinkOnGrid++
			}
		}
	}
	res.Metrics["blinks"] = float64(blinks)
	res.Metrics["blinks_on_grid"] = float64(blinkOnGrid)
	return res, nil
}
