package defense

import (
	"gpuleak/internal/channel"
	"gpuleak/internal/victim"
)

// noiseMaxAmplitude is the obfuscation amplitude at strength 1: half a
// key-press-equivalent of injected GPU work per vsync bucket, which the
// §9.3 matrix already shows is far past the point where the classifier
// collapses, at a GPU cost of noiseMaxAmplitude·0.18 ≈ 9%. The sweep
// ramps amplitude quadratically in strength — the §9.3 matrix shows tiny
// amplitudes already bite, so a linear ramp would saturate the frontier
// at the first step.
const noiseMaxAmplitude = 0.5

// noiseAmplitude maps a strength to the injected amplitude.
func noiseAmplitude(strength float64) float64 {
	return noiseMaxAmplitude * strength * strength
}

// noise is the §9.3 noise-injection defense as a registered policy: Arm
// installs a seeded NoiseObfuscator on the session's KGSL device, so
// every unprivileged counter read carries a monotone random walk of
// fake GPU work on top of the real signal. It is device-level — the
// proccount channel reads OS bookkeeping, not the KGSL export path — so
// a fused attacker keeps the OS channel's coarse view, which is exactly
// the composition gap the arms tournament quantifies.
type noise struct{}

func (noise) Name() string { return "noise" }

func (noise) Doc() string {
	return "seeded background GPU workloads obfuscate counter values (kgsl.Obfuscator); strength scales amplitude and GPU cost together"
}

func (noise) Channels() []string { return []string{channel.DefaultName} }

// Overhead implements Policy: the obfuscator's own GPUCostFraction at
// the strength's amplitude.
func (noise) Overhead(strength float64) float64 {
	o := NoiseObfuscator{Amplitude: noiseAmplitude(strength)}
	return o.GPUCostFraction()
}

// Arm implements Policy: installs the obfuscator device hook; probes
// pass through untouched (the perturbation happens inside the driver).
func (d noise) Arm(sess *victim.Session, strength float64, seed int64) (Instance, error) {
	if err := checkStrength(strength); err != nil {
		return nil, err
	}
	if strength == 0 {
		return passthrough{}, nil
	}
	sess.Device.SetObfuscator(&NoiseObfuscator{
		Amplitude: noiseAmplitude(strength),
		Seed:      uint64(seed),
	})
	return &instance{overhead: d.Overhead(strength)}, nil
}
