package defense

import (
	"gpuleak/internal/channel"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// jitterMax is the largest added read latency at strength 1: three
// quarters of the 8 ms polling interval, enough to smear a key press
// across neighboring ticks without stalling the interface outright.
const jitterMax = 6 * sim.Millisecond

// jitter is read-latency jitter: the kernel delays each unprivileged
// counter read by a seeded, per-read random latency before snapshotting,
// so the values land at perturbed times while the attacker still stamps
// them on its own polling grid. The temporal misalignment splits and
// merges per-key deltas — the segmentation layer's worst enemy — at a
// small latency cost and no GPU work. The delay for a read at tick time
// t is a pure function of (seed, t), and perturbed snapshot times are
// kept strictly monotone so cumulative counters never regress.
type jitter struct{}

func (jitter) Name() string { return "jitter" }

func (jitter) Doc() string {
	return "delays each counter read by a seeded random latency up to strength*6ms, smearing deltas across polling ticks"
}

func (jitter) Channels() []string { return []string{channel.DefaultName, "proccount"} }

// Overhead implements Policy: the added latency is bounded by the
// polling interval; the platform cost is scheduling slack, not GPU work.
func (jitter) Overhead(strength float64) float64 { return 0.02 * strength }

// Arm implements Policy.
func (d jitter) Arm(sess *victim.Session, strength float64, seed int64) (Instance, error) {
	if err := checkStrength(strength); err != nil {
		return nil, err
	}
	if strength == 0 {
		return passthrough{}, nil
	}
	max := sim.Time(strength * float64(jitterMax))
	if max < 1 {
		max = 1
	}
	return &instance{
		channels: d.Channels(),
		overhead: d.Overhead(strength),
		wrap: func(channelName string, p channel.Probe) channel.Probe {
			return &jitteredProbe{inner: p, max: max, seed: uint64(seed), last: -1}
		},
	}, nil
}

// jitteredProbe perturbs the snapshot time of every read. The monotone
// clamp (never at or before the previous snapshot) preserves the
// cumulative-counter contract under retries and backoff re-reads.
type jitteredProbe struct {
	inner channel.Probe
	max   sim.Time
	seed  uint64
	last  sim.Time
}

func (p *jitteredProbe) ReserveSelected(t sim.Time) error { return p.inner.ReserveSelected(t) }

func (p *jitteredProbe) ReadSelected(t sim.Time) (trace.Raw, error) {
	d := sim.Time(splitmix(p.seed^uint64(t)) % uint64(p.max+1))
	at := t + d
	if at <= p.last {
		at = p.last + 1
	}
	vals, err := p.inner.ReadSelected(at)
	if err != nil {
		return vals, err
	}
	p.last = at
	return vals, nil
}

func (p *jitteredProbe) TickFault(tick int, t sim.Time) (sim.Time, bool) {
	return forwardTickFault(p.inner, tick, t)
}
