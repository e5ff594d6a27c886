package attack

import (
	"context"
	"fmt"

	"gpuleak/internal/channel"
	"gpuleak/internal/defense"
	"gpuleak/internal/fault"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// Pipeline is the declarative spec of the online probe stack: which side
// channels to sample, under which fault plane and defense, with which
// hooks. It is the one place that knows the stack's rules:
//
//   - Wrap order: each leg's channel probe, then the fault plane, then the
//     defense wrap — a rate-limit denial happens before any (possibly
//     faulted) device read, and defense wrappers forward the fault plane's
//     tick schedule.
//   - Fault scope: a Fault profile — any named one, "none" included, or
//     any that injects — wraps the primary leg only, and only when that
//     leg is the KGSL channel; fault profiles model the KGSL ioctl path.
//   - Retry is derived: a leg under a fault plane, or any leg of a spec
//     carrying a Defense, samples with Retry on so injected faults and
//     defense denials degrade the result instead of failing it; every
//     other leg keeps it off. Each leg's interval and error taxonomy are
//     its channel's.
//   - Observability: Obs traces the primary leg end to end — fault plane,
//     sampler and engine; secondary legs run untraced. Classify hooks the
//     engine of single-leg runs only.
//
// A single-leg run gives exactly Attack.EavesdropContext's result on the
// built probe. Two legs run independently and merge with Fuse.
type Pipeline struct {
	// Legs are the side channels to sample, primary first; at most two.
	Legs []Leg
	// Fault is the fault profile to inject on the primary KGSL leg (the
	// zero value: no fault plane) and FaultSeed its schedule seed.
	Fault     fault.Profile
	FaultSeed int64
	// Defense is an armed defense whose probe wraps apply to every leg it
	// covers (nil: none).
	Defense defense.Instance
	// Classify, when non-nil, overrides per-delta classification on a
	// single-leg run; see Attack.Classify.
	Classify func(m *Model, at sim.Time, v trace.Vec) Verdict
	// Obs, when non-nil, traces the primary leg.
	Obs *obs.Tracer
}

// Leg is one side channel of a pipeline.
type Leg struct {
	// Channel is the channel registry name; empty means the default KGSL
	// channel.
	Channel string
	// Model is the classifier trained on the channel.
	Model *Model
}

// Stack is a built pipeline: one opened and wrapped probe per leg, ready
// to sample.
type Stack struct {
	Legs []StackLeg
}

// StackLeg is one built leg.
type StackLeg struct {
	// Channel is the resolved side channel.
	Channel channel.Channel
	// Probe is the leg's fully wrapped probe.
	Probe Probe
	// Fault is the leg's fault plane (nil when the leg is not faulted); its
	// Stats count what was injected.
	Fault *fault.File
	// Attack is the single-leg engine configured for the probe: the leg's
	// model, its channel's interval and taxonomy, the derived retry switch
	// and the hooks the leg receives.
	Attack *Attack
}

// LegOutcome is what one leg's run produced.
type LegOutcome struct {
	// Result is the leg's inference (nil when Err is set). A single-leg
	// result carries the sampler's recovery work in Recovery; a fused leg's
	// has the engine-only shape Fuse consumes.
	Result *Result
	// Trace is the leg's counter trace, every delta its engine ran on
	// (nil when sampling failed).
	Trace *trace.Trace
	// Stats is the sampler's recovery work.
	Stats CollectStats
	// Injected counts what the leg's fault plane injected.
	Injected fault.InjectedStats
	// Err is the leg's failure, if any.
	Err error
}

// Outcome is a pipeline run's result.
type Outcome struct {
	// Legs holds one outcome per leg, in pipeline order.
	Legs []LegOutcome
	// Result is the pipeline's answer: the single leg's result, or the
	// fused one. Nil when any leg failed.
	Result *Result
	// Fusion details a successful two-leg run (nil otherwise).
	Fusion *FusionResult
}

// Build opens every leg's probe on the session and wraps it by the
// pipeline's rules. The defense, if any, must already be armed on sess.
func (p Pipeline) Build(sess *victim.Session) (*Stack, error) {
	if len(p.Legs) == 0 || len(p.Legs) > 2 {
		return nil, fmt.Errorf("attack: a pipeline runs one or two legs, got %d", len(p.Legs))
	}
	st := &Stack{Legs: make([]StackLeg, len(p.Legs))}
	for i, leg := range p.Legs {
		ch, err := channel.Get(leg.Channel)
		if err != nil {
			return nil, err
		}
		probe, err := ch.Open(sess)
		if err != nil {
			return nil, fmt.Errorf("attack: opening channel %q: %w", ch.Name, err)
		}
		primary := i == 0
		a := &Attack{Models: []*Model{leg.Model}, Interval: ch.Interval, Errors: ch.Taxonomy}
		sl := StackLeg{Channel: ch}
		if primary && (p.Fault.Name != "" || !p.Fault.IsZero()) {
			dev, ok := probe.(fault.Device)
			if !ok || ch.Name != channel.DefaultName {
				return nil, fmt.Errorf("attack: channel %q cannot carry a fault profile", ch.Name)
			}
			sl.Fault = fault.NewFile(dev, p.Fault, p.FaultSeed)
			sl.Fault.Obs = p.Obs
			probe = sl.Fault
		}
		if p.Defense != nil {
			probe = p.Defense.WrapProbe(ch.Name, probe)
		}
		if sl.Fault != nil || p.Defense != nil {
			a.Retry = true
		}
		if primary {
			a.Obs = p.Obs
		}
		if len(p.Legs) == 1 {
			a.Classify = p.Classify
		}
		sl.Probe, sl.Attack = probe, a
		st.Legs[i] = sl
	}
	return st, nil
}

// Run builds the stack on sess and runs it over [start, end]; see
// Stack.Run.
func (p Pipeline) Run(ctx context.Context, sess *victim.Session, start, end sim.Time, emit func(StreamEvent) error) (*Outcome, error) {
	st, err := p.Build(sess)
	if err != nil {
		return nil, err
	}
	return st.Run(ctx, start, end, emit)
}

// Run samples every leg over [start, end], running Algorithm 1 inside
// each leg's sampling loop and keeping its trace, then fuses two legs
// over the primary's stored deltas. The outcome is always returned, with
// every leg's result or failure; the error is the first leg's failure in
// pipeline order.
//
// emit, when non-nil, is the streaming tap of a single-leg run (fused
// runs emit nothing): it is invoked synchronously for every key the
// engine commits and every retraction it performs, in delta order, from
// inside the sampling loop — the paper's real-time notification-bar
// display as an API. A run that fails mid-way has emitted the keys it
// committed before the failure. A non-nil error from emit stops the
// engine (a streaming client went away) and the run returns it, unless
// sampling fails or ctx ends first. The result does not depend on emit:
// the emission is a tap on Algorithm 1, never a fork of it.
func (st *Stack) Run(ctx context.Context, start, end sim.Time, emit func(StreamEvent) error) (*Outcome, error) {
	out := &Outcome{Legs: make([]LegOutcome, len(st.Legs))}
	single := len(st.Legs) == 1
	if !single {
		emit = nil
	}
	for i, l := range st.Legs {
		lo := &out.Legs[i]
		lo.Result, lo.Trace, lo.Stats, lo.Err = l.Attack.run(ctx, l.Probe, start, end, emit, true)
		if l.Fault != nil {
			lo.Injected = l.Fault.Stats
		}
		if single && lo.Err == nil {
			lo.Result.addRecovery(lo.Stats)
		}
	}
	for _, lo := range out.Legs {
		if lo.Err != nil {
			return out, lo.Err
		}
	}
	if single {
		out.Result = out.Legs[0].Result
		return out, nil
	}
	pl, sl := st.Legs[0], st.Legs[1]
	pri, sec := out.Legs[0], out.Legs[1]
	out.Fusion = Fuse(pl.Attack.Models[0], pri.Trace.Deltas(), pri.Result,
		sl.Attack.Models[0], sec.Result, pl.Channel.Interval)
	out.Result = out.Fusion.Fused
	return out, nil
}
