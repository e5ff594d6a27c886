package exp

import (
	"context"
	"fmt"

	"gpuleak/internal/attack"
	"gpuleak/internal/defense"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/obs"
	"gpuleak/internal/parallel"
	"gpuleak/internal/proccount"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// Every experiment that runs the attack is a list of trials and a
// reduction: it builds one trial per eavesdrop, runs the list once
// through runTrials, and reduces the records, which come back in trial
// order, to its table and metrics. The trial list carries every seed,
// so results are identical at any worker count.

// trial is one eavesdrop's inputs: a victim session and the probe stack
// the attacker samples it through.
type trial struct {
	// cfg is the victim configuration; cfg.Seed seeds the session.
	cfg victim.Config
	// script is what the victim does.
	script input.Script
	// legs are the sampled side channels, primary first.
	legs []attack.Leg
	// interval overrides the primary leg's polling period (0 keeps its
	// channel's), and opts are the primary engine's options.
	interval sim.Time
	opts     attack.OnlineOptions
	// fault is injected on the primary KGSL leg under faultSeed's
	// schedule; the zero profile builds no fault plane.
	fault     fault.Profile
	faultSeed int64
	// arm, when non-nil, installs a defense on the simulated session
	// before the stack is built. A device-level hook returns a nil
	// instance, which leaves the stack undefended and its retry switch
	// off.
	arm func(*victim.Session) (defense.Instance, error)
	// keepTrace keeps every leg's counter trace in the record, for a
	// reduction that reruns inference on it; without it the record
	// drops them.
	keepTrace bool
}

// record is what one trial produced.
type record struct {
	// truth is the credential the victim typed, after corrections.
	truth string
	// out is the pipeline's outcome, nil when arming or building the
	// stack failed.
	out *attack.Outcome
	// err is the trial's failure: arming, building, or the first failed
	// leg.
	err error
}

// runTrials runs every trial on one pool of o.Workers and returns their
// records in trial order. Trial i records onto its own telemetry track,
// trial/i, created before the fan-out so the stream is independent of
// scheduling. A failed trial is a record, not an error: runTrials fails
// only when o's context ends.
func runTrials(o Options, trials []trial) ([]record, error) {
	ctx := o.Context()
	tracks := make([]*obs.Tracer, len(trials))
	if o.Obs != nil {
		for i := range tracks {
			tracks[i] = o.Obs.Child(fmt.Sprintf("trial/%04d", i))
		}
	}
	recs := make([]record, len(trials))
	err := parallel.ForEachCtx(ctx, o.Workers, len(trials), func(i int) error {
		recs[i] = trials[i].run(ctx, tracks[i])
		return nil
	})
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// run simulates the victim, builds the stack through attack.Pipeline and
// eavesdrops the whole session; the session's device metrics and the
// primary leg go to tr.
func (t trial) run(ctx context.Context, tr *obs.Tracer) record {
	sess := victim.New(t.cfg)
	sess.Run(t.script)
	sess.Device.SetMetrics(tr.Metrics())
	rec := record{truth: sess.TypedText()}
	p := attack.Pipeline{Legs: t.legs, Fault: t.fault, FaultSeed: t.faultSeed, Obs: tr}
	if t.arm != nil {
		if p.Defense, rec.err = t.arm(sess); rec.err != nil {
			return rec
		}
	}
	st, err := p.Build(sess)
	if err != nil {
		rec.err = err
		return rec
	}
	a := st.Legs[0].Attack
	if t.interval != 0 {
		a.Interval = t.interval
	}
	a.Options = t.opts
	rec.out, rec.err = st.Run(ctx, 0, sess.End, nil)
	if !t.keepTrace {
		for i := range rec.out.Legs {
			rec.out.Legs[i].Trace = nil
		}
	}
	return rec
}

// runAll is runTrials for reductions that cannot score a failed trial:
// the first failure in trial order fails the experiment.
func runAll(o Options, trials []trial) ([]record, error) {
	recs, err := runTrials(o, trials)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if r.err != nil {
			return nil, r.err
		}
	}
	return recs, nil
}

// kgslTrial is the paper's attack on cfg's victim: the KGSL channel
// alone, classified with m.
func kgslTrial(cfg victim.Config, m *attack.Model) trial {
	return trial{cfg: cfg, legs: []attack.Leg{{Model: m}}}
}

// fusedTrial samples cfg's victim on KGSL with model pm and on proccount
// with model sm, and fuses the two at decision level.
func fusedTrial(cfg victim.Config, pm, sm *attack.Model) trial {
	return trial{cfg: cfg, legs: []attack.Leg{{Model: pm}, {Channel: proccount.Name, Model: sm}}}
}

// typing returns n copies of base, each typing a random credential of
// the given length drawn from alphabet: trial i types the generator's
// i-th draw, seeded with seed, as vol at speed on a victim seeded
// seed+101i.
func typing(base trial, alphabet []rune, length, n int, vol input.Volunteer, speed input.Speed, seed int64) []trial {
	rng := sim.NewRand(seed)
	ts := make([]trial, n)
	for i := range ts {
		t := base
		t.cfg.Seed = seed + int64(i)*101
		t.script = typeText(input.RandomText(rng, alphabet, length), vol, speed, t.cfg.Seed)
		ts[i] = t
	}
	return ts
}

// typeText is vol typing text at speed from 0.7 s after launch, with the
// timing drawn from the victim seed.
func typeText(text string, vol input.Volunteer, speed input.Speed, seed int64) input.Script {
	return input.Typing(text, vol, speed, sim.NewRand(seed^0x5DEECE66D), 700*sim.Millisecond)
}

// texts returns the inferred and the typed text of every record, in
// order; every trial must have succeeded.
func texts(recs []record) (inferred, truth []string) {
	inferred, truth = make([]string, len(recs)), make([]string, len(recs))
	for i, r := range recs {
		inferred[i], truth[i] = r.out.Result.Text, r.truth
	}
	return inferred, truth
}

// blocks splits recs into consecutive blocks of n > 0, one per sweep
// cell.
func blocks(recs []record, n int) [][]record {
	var out [][]record
	for i := 0; i < len(recs); i += n {
		out = append(out, recs[i:i+n])
	}
	return out
}
