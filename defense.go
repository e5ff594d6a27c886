package gpuleak

import (
	"gpuleak/internal/defense"
)

// The defense plane. Where the fault plane (fault.go) models the
// environment degrading the attack by accident, the defense plane models
// the platform fighting back on purpose: a registry of composable,
// strength-parameterized countermeasures (§9) — counter-read rate
// limiting, value quantization, noise obfuscation, counter-group RBAC,
// read-latency jitter — each reporting an overhead estimate, so the
// arms experiment can chart the accuracy-vs-overhead frontier.
// Everything is deterministic: a fixed (defense, strength, seed) replays
// bit-identically, and strength 0 is a byte-identical passthrough.

// Defense-plane types, re-exported from the internal layer.
type (
	// DefensePolicy is one registered defense: Name/Doc/Channels describe
	// it, Overhead estimates its platform cost at a strength, and Arm
	// binds it to a victim session. Resolve by name with DefenseByName;
	// "a+b" names arm a chain.
	DefensePolicy = defense.Policy
	// DefenseInstance is one armed defense on one session: WrapProbe
	// filters a channel's read path, Overhead reports the armed cost.
	DefenseInstance = defense.Instance
)

// Defenses returns the registered defense names, sorted — the values
// accepted by DefenseByName and the "defense" serving-request field, and
// the rows of the arms experiment's frontier.
func Defenses() []string { return defense.Names() }

// DefenseByName resolves a registered defense, or a "+"-joined chain of
// them ("quantize+jitter": members arm in listed order, overheads add).
// Unknown names fail with an error matching ErrUnknownDefense.
func DefenseByName(name string) (DefensePolicy, error) { return defense.Get(name) }

// ChainDefenses combines defenses into one policy: members arm in listed
// order at a shared strength, probe wraps compose first-listed innermost,
// overheads add (capped at 1).
func ChainDefenses(members ...DefensePolicy) DefensePolicy { return defense.Chain(members...) }

// DefenseSeed derives the deterministic defense seed for a scenario
// index from a base seed — the derivation served requests use when the
// request leaves defense_seed unset.
func DefenseSeed(base int64, scenario int) int64 { return defense.Seed(base, scenario) }
