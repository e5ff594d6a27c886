package defense

import (
	"sort"

	"gpuleak/internal/adreno"
	"gpuleak/internal/channel"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// rbac is the graded probe-level form of the §9.2 counter-group RBAC: a
// compatibility compromise where unprivileged block reads still succeed
// but counters in restricted groups export a constant instead of their
// value (a full RBACPolicy on the device would fail the whole ioctl —
// availability loss the compromise avoids). Strength selects how many of
// the attack-bearing groups are restricted, escalating from the group
// the paper's ablation shows carries the least signal toward the most:
// VPC first, then RAS, then LRZ — so low strengths cost legitimate
// profilers little, and at strength 1 every selected counter reads as a
// constant and the KGSL channel goes dark.
type rbac struct{}

func (rbac) Name() string { return "rbac" }

func (rbac) Doc() string {
	return "masks restricted counter groups to constants (graded §9.2 RBAC); strength restricts VPC, then RAS, then LRZ"
}

func (rbac) Channels() []string { return []string{channel.DefaultName} }

// rbacGroupOrder is the restriction escalation: groups sorted by how
// much attack signal they carry (ablation-counters), least first, so the
// sweep degrades the attacker gradually instead of going dark at the
// first step.
var rbacGroupOrder = []uint32{adreno.GroupVPC, adreno.GroupRAS, adreno.GroupLRZ}

// rbacMask returns the selected-counter dimensions masked at a strength:
// ceil(strength·len(order)) leading groups of the escalation.
func rbacMask(strength float64) [adreno.NumSelected]bool {
	restricted := int(strength * float64(len(rbacGroupOrder)))
	if float64(restricted) < strength*float64(len(rbacGroupOrder)) {
		restricted++
	}
	if restricted > len(rbacGroupOrder) {
		restricted = len(rbacGroupOrder)
	}
	groups := map[uint32]bool{}
	for _, g := range rbacGroupOrder[:restricted] {
		groups[g] = true
	}
	var mask [adreno.NumSelected]bool
	for i, k := range adreno.Selected {
		mask[i] = groups[k.Group]
	}
	return mask
}

// MaskedGroups reports the group names a strength restricts, sorted —
// the operator-facing view of the escalation the arms report sweeps.
func MaskedGroups(strength float64) []string {
	mask := rbacMask(strength)
	seen := map[string]bool{}
	for i, k := range adreno.Selected {
		if mask[i] {
			seen[adreno.GroupName(k.Group)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Overhead implements Policy: access control is free at read time; the
// estimate is zero at every strength.
func (rbac) Overhead(strength float64) float64 { return 0 }

// Arm implements Policy.
func (d rbac) Arm(sess *victim.Session, strength float64, seed int64) (Instance, error) {
	if err := checkStrength(strength); err != nil {
		return nil, err
	}
	if strength == 0 {
		return passthrough{}, nil
	}
	mask := rbacMask(strength)
	return &instance{
		channels: d.Channels(),
		overhead: d.Overhead(strength),
		wrap: func(channelName string, p channel.Probe) channel.Probe {
			return &maskedProbe{inner: p, mask: mask}
		},
	}, nil
}

// maskedProbe zeroes restricted dimensions on every read. A constant
// zero is monotone and delta-free: restricted counters contribute
// nothing to the weighted distance, exactly like a channel that never
// fills those dimensions.
type maskedProbe struct {
	inner channel.Probe
	mask  [adreno.NumSelected]bool
}

func (p *maskedProbe) ReserveSelected(t sim.Time) error { return p.inner.ReserveSelected(t) }

func (p *maskedProbe) ReadSelected(t sim.Time) (trace.Raw, error) {
	vals, err := p.inner.ReadSelected(t)
	if err != nil {
		return vals, err
	}
	for i := range vals {
		if p.mask[i] {
			vals[i] = 0
		}
	}
	return vals, nil
}

func (p *maskedProbe) TickFault(tick int, t sim.Time) (sim.Time, bool) {
	return forwardTickFault(p.inner, tick, t)
}
