// Package defense is the composable counter-defense plane: a fixed table
// of strength-parameterized policies that operators deploy against the
// paper's GPU perf-counter leak (§9) and its fused OS-counter sibling.
// Where internal/fault models the environment fighting the attacker by
// accident, this package models the platform fighting back on purpose —
// rate limiting the counter interface, quantizing or noising its values,
// masking counter groups behind RBAC, and jittering read latency — each
// with a single strength knob in [0, 1] and a GPUCostFraction-style
// overhead estimate, so the attack-vs-defense frontier (the arms
// experiment in internal/exp) can trade attacker accuracy against
// defender cost.
//
// A Policy describes one defense; Arm binds it to a victim session at a
// strength and returns an Instance that (a) may have installed
// device-level hooks (kgsl.Device.SetPolicy / SetObfuscator) and (b)
// wraps the probes of the channels it covers. Per-channel applicability
// (Policy.Channels) is what lets defenses compose with the fusion path:
// a KGSL-only defense leaves the proccount probe untouched, and the
// fused attacker keeps whatever the undefended channel still leaks.
//
// The set of policies is closed, like internal/channel's table:
// consumers resolve them by name through Get. Get also parses "a+b" into
// a chain: the combinator that arms several defenses on one session,
// device hooks first-listed innermost.
//
// The package also holds the paper's device-level §9 mechanisms that
// the policies build on: RBACPolicy (§9.2 counter-group access control,
// a kgsl.Policy), IoctlPolicy (the same control expressed as a SELinux
// ioctl whitelist), and NoiseObfuscator (§9.3 background-workload
// obfuscation, a kgsl.Obfuscator). Popup disabling (§9.1) is
// victim.Config.DisablePopups, and decorative login animations (§9.3)
// are the android.PNC app.
//
// # Determinism contract
//
// Defenses follow the channel plane's replay rules: all randomness is a
// pure function of (seed, counter index, sim-time), never of wall clock,
// call count across probes, or scheduling, so a fixed (defense,
// strength, seed) replays bit-identically at any worker count. Strength
// 0 is a byte-identical passthrough — Arm installs nothing and WrapProbe
// returns its argument unchanged — mirroring the fault plane's zero
// profile.
package defense

import (
	"errors"
	"fmt"
	"strings"

	"gpuleak/internal/channel"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// ErrUnknownDefense reports a defense name absent from the table.
// Match with errors.Is; the serving layer maps it onto HTTP 400.
var ErrUnknownDefense = errors.New("defense: unknown defense")

// ErrStrength reports a strength outside [0, 1]. Match with errors.Is;
// the serving layer maps it onto HTTP 400 through serve.ErrBadRequest.
var ErrStrength = errors.New("defense: strength must be in [0, 1]")

// Policy is one defense: a named, strength-parameterized
// countermeasure that can be armed on a victim session.
type Policy interface {
	// Name is the table key ("ratelimit", "quantize", "noise", "rbac",
	// "jitter"); chains join member names with "+".
	Name() string
	// Doc is a one-line operator-facing description of the mechanism and
	// what its strength knob controls.
	Doc() string
	// Channels lists the side-channel names the defense covers,
	// sorted. Probes of channels outside the set pass through unchanged.
	Channels() []string
	// Overhead estimates the defense's cost to the platform at the given
	// strength as a fraction of GPU/system capacity, in the style of
	// NoiseObfuscator.GPUCostFraction. It is a pure function of strength.
	Overhead(strength float64) float64
	// Arm binds the defense to one victim session at the given strength
	// and seed: device-level hooks are installed here, probe-level wraps
	// come from the returned Instance. Strength 0 must install nothing
	// and return a passthrough; strengths outside [0, 1] fail with an
	// error matching ErrStrength.
	Arm(sess *victim.Session, strength float64, seed int64) (Instance, error)
}

// Instance is one armed defense on one victim session. Implementations
// are owned by the session's sampling goroutines the way probes are; all
// state lives per wrapped probe.
type Instance interface {
	// WrapProbe wraps one channel's probe in the defense's read path. For
	// channels outside the policy's applicability set — and always at
	// strength 0 — it returns p unchanged, the byte-identical passthrough.
	WrapProbe(channelName string, p channel.Probe) channel.Probe
	// Overhead reports the armed strength's cost estimate, the value the
	// arms tournament plots against attacker accuracy.
	Overhead() float64
}

// policies lists every defense, sorted by name. Chains are not listed:
// Get derives them from "+"-joined names.
var policies = []Policy{jitter{}, noise{}, quantize{}, rateLimit{}, rbac{}}

// Get resolves a defense by name. A name containing "+" resolves every
// part and returns their Chain ("quantize+jitter"), the composition
// order being the listed order. Unknown or empty names fail with an
// error matching ErrUnknownDefense.
func Get(name string) (Policy, error) {
	parts := strings.Split(name, "+")
	if len(parts) > 1 {
		members := make([]Policy, 0, len(parts))
		for _, part := range parts {
			p, err := Get(strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			members = append(members, p)
		}
		return Chain(members...), nil
	}
	if name == "" {
		return nil, fmt.Errorf("%w: empty name (registered: %v)", ErrUnknownDefense, Names())
	}
	for _, p := range policies {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownDefense, name, Names())
}

// Names lists the defense names, sorted.
func Names() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.Name()
	}
	return out
}

// Seed derives the deterministic defense seed for one scenario from a
// base seed, the same derivation shape as fault.Seed, so tournaments and
// served requests agree on the schedule for a given (seed, trial).
func Seed(base int64, scenario int) int64 {
	return sim.TaskSeed(base^0x646566 /* "def" */, scenario)
}

// checkStrength validates the knob's range.
func checkStrength(strength float64) error {
	if strength < 0 || strength > 1 {
		return fmt.Errorf("%w: got %v", ErrStrength, strength)
	}
	return nil
}

// passthrough is the strength-0 instance: no device hooks were
// installed, and probes pass through untouched.
type passthrough struct{}

func (passthrough) WrapProbe(_ string, p channel.Probe) channel.Probe { return p }

func (passthrough) Overhead() float64 { return 0 }

// instance is the common armed-defense shape: a probe-wrapping function
// gated by the policy's channel set, plus the strength's cost estimate.
type instance struct {
	channels []string
	overhead float64
	wrap     func(channelName string, p channel.Probe) channel.Probe
}

func (in *instance) WrapProbe(channelName string, p channel.Probe) channel.Probe {
	if in.wrap == nil {
		return p
	}
	for _, c := range in.channels {
		if c == channelName {
			return in.wrap(channelName, p)
		}
	}
	return p
}

func (in *instance) Overhead() float64 { return in.overhead }

// forwardTickFault resolves a wrapped probe's tick schedule: the inner
// probe's if it has one, a clean tick otherwise. Every probe wrapper in
// this package forwards channel.TickFaults through it, so a defense
// layered over a fault plane does not hide the fault schedule from the
// sampler's type assertion.
func forwardTickFault(inner channel.Probe, tick int, t sim.Time) (sim.Time, bool) {
	if tf, ok := inner.(channel.TickFaults); ok {
		return tf.TickFault(tick, t)
	}
	return 0, false
}
