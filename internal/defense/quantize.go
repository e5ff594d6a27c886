package defense

import (
	"math"

	"gpuleak/internal/channel"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// quantize is counter quantization, the filtering defense EavesDroid's
// countermeasure section evaluates on OS counters and the paper's §9
// names for GPU ones: the kernel rounds every exported counter value
// down to a multiple of a per-counter quantum before unprivileged
// readers see it. Real work still accrues — the export is merely
// coarse — so the defense costs almost nothing, but per-key deltas
// collapse onto the quantization grid and the centroid classifier loses
// its geometry. Strength sweeps the quantum geometrically up to one full
// typical key-press delta per counter: key presses spread over many
// polling ticks, so per-tick increments sit one to two decades below the
// per-key magnitude, and a linear quantum ramp would blank the channel
// at the very first step. The geometric ramp (quantum = scaleᵉˣᵖ)
// walks those decades instead, giving the frontier a graded curve.
type quantize struct{}

func (quantize) Name() string { return "quantize" }

func (quantize) Doc() string {
	return "rounds exported counter values down to a per-counter quantum; strength sweeps it geometrically up to one key-press delta"
}

func (quantize) Channels() []string { return []string{channel.DefaultName, "proccount"} }

// Overhead implements Policy: quantization is a pure export filter; the
// only cost is the masking arithmetic in the read path.
func (quantize) Overhead(strength float64) float64 { return 0.005 * strength }

// quantizeScale holds the per-channel reference magnitudes the quantum
// is scaled against: the KGSL channel reuses the obfuscator's typical
// key-press deltas, the proccount channel uses the per-key magnitudes of
// its four OS counters (IRQ and context-switch counts, softirq work
// units, busy-time microseconds).
func quantizeScale(channelName string) (trace.Raw, bool) {
	switch channelName {
	case channel.DefaultName:
		var s trace.Raw
		copy(s[:], DefaultCounterScale[:])
		return s, true
	case "proccount":
		return trace.Raw{6, 40, 16, 6000}, true
	}
	return trace.Raw{}, false
}

// Arm implements Policy.
func (d quantize) Arm(sess *victim.Session, strength float64, seed int64) (Instance, error) {
	if err := checkStrength(strength); err != nil {
		return nil, err
	}
	if strength == 0 {
		return passthrough{}, nil
	}
	return &instance{
		channels: d.Channels(),
		overhead: d.Overhead(strength),
		wrap: func(channelName string, p channel.Probe) channel.Probe {
			scale, ok := quantizeScale(channelName)
			if !ok {
				return p
			}
			var q trace.Raw
			for i, s := range scale {
				q[i] = 1 + uint64(math.Pow(float64(s), strength))
			}
			return &quantizedProbe{inner: p, quantum: q}
		},
	}, nil
}

// quantizedProbe floors every counter value to its quantum's grid.
// Flooring preserves monotonicity, so the sampler's wrap check never
// misfires on a quantized channel.
type quantizedProbe struct {
	inner   channel.Probe
	quantum trace.Raw
}

func (p *quantizedProbe) ReserveSelected(t sim.Time) error { return p.inner.ReserveSelected(t) }

func (p *quantizedProbe) ReadSelected(t sim.Time) (trace.Raw, error) {
	vals, err := p.inner.ReadSelected(t)
	if err != nil {
		return vals, err
	}
	for i, v := range vals {
		vals[i] = v - v%p.quantum[i]
	}
	return vals, nil
}

func (p *quantizedProbe) TickFault(tick int, t sim.Time) (sim.Time, bool) {
	return forwardTickFault(p.inner, tick, t)
}
