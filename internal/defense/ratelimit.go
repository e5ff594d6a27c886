package defense

import (
	"fmt"

	"gpuleak/internal/channel"
	"gpuleak/internal/fault"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// rateLimit is the counter-interface rate limiter the paper's §9 sketch
// and the KGSL hardening patches both reach for first: the kernel bounds
// how often an unprivileged process may read the counter surface, and
// reads beyond the budget fail with the channel's transient-busy errno
// (EBUSY on KGSL, EAGAIN on procfs). The attacker's retry machinery
// absorbs denials into backoff and trace gaps, so the defense degrades
// accuracy by starving the sampling cadence rather than by breaking
// availability outright.
//
// The token bucket runs over sim-time and is a pure function of (read
// time, grants so far): token i becomes available at i*period, a read at
// t is granted while grants < t/period + burst. Strength maps onto the
// sustained rate: 0.25 still covers most of the 125 Hz polling cadence,
// 1.0 leaves a handful of reads per second.
type rateLimit struct{}

func (rateLimit) Name() string { return "ratelimit" }

func (rateLimit) Doc() string {
	return "token bucket over sim-time on counter reads; strength shrinks the sustained read rate from ~139/s to 4/s"
}

func (rateLimit) Channels() []string { return []string{channel.DefaultName, "proccount"} }

// rateLimitRate maps strength onto the sustained read budget in reads
// per second: 4 + 240·(1−s)², from ~139/s at 0.25 (mild gaps against the
// 125 Hz sampler) down to 4/s at 1.0 (30 of every 31 ticks starve).
func rateLimitRate(strength float64) float64 {
	return 4 + 240*(1-strength)*(1-strength)
}

// Overhead implements Policy: rate limiting costs only admission
// bookkeeping in the driver, no GPU work.
func (rateLimit) Overhead(strength float64) float64 { return 0.01 * strength }

// Arm implements Policy.
func (d rateLimit) Arm(sess *victim.Session, strength float64, seed int64) (Instance, error) {
	if err := checkStrength(strength); err != nil {
		return nil, err
	}
	if strength == 0 {
		return passthrough{}, nil
	}
	period := sim.Time(float64(sim.Second) / rateLimitRate(strength))
	if period < 1 {
		period = 1
	}
	return &instance{
		channels: d.Channels(),
		overhead: d.Overhead(strength),
		wrap: func(channelName string, p channel.Probe) channel.Probe {
			return &rateLimitedProbe{inner: p, period: period, burst: 2, tax: taxonomyOf(channelName)}
		},
	}, nil
}

// taxonomyOf resolves a channel's error taxonomy so wrapped probes deny
// with the sentinel family the channel's retry classification recovers.
func taxonomyOf(channelName string) fault.Taxonomy {
	ch, err := channel.Get(channelName)
	if err != nil {
		return fault.KGSL()
	}
	return ch.Taxonomy
}

// rateLimitedProbe denies ReadSelected beyond the token budget with the
// channel's Busy sentinel. Reservation is a one-time control call and
// stays unmetered, like PERFCOUNTER_GET against a read limiter.
type rateLimitedProbe struct {
	inner  channel.Probe
	period sim.Time
	burst  int64
	tax    fault.Taxonomy
	grants int64
}

func (p *rateLimitedProbe) ReserveSelected(t sim.Time) error { return p.inner.ReserveSelected(t) }

func (p *rateLimitedProbe) ReadSelected(t sim.Time) (trace.Raw, error) {
	if t < 0 {
		t = 0
	}
	if p.grants >= int64(t/p.period)+p.burst {
		return trace.Raw{}, fmt.Errorf("defense: ratelimit: read budget exhausted at %v: %w", t, p.tax.Busy)
	}
	p.grants++
	return p.inner.ReadSelected(t)
}

func (p *rateLimitedProbe) TickFault(tick int, t sim.Time) (sim.Time, bool) {
	return forwardTickFault(p.inner, tick, t)
}
