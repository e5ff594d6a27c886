package gpuleak

import (
	"gpuleak/internal/attack"
	"gpuleak/internal/fault"
)

// Fault injection & degraded mode. The fault plane wraps a device file
// in a seeded schedule of the failures a real KGSL consumer sees under
// contention (EBUSY bursts, counter revocation, missed polling ticks,
// wrapped 32-bit reads, transient closures); the attack pipeline absorbs
// them with a sim-time RetryPolicy and reports what it survived in
// Result.Degraded / Result.Recovery. Everything is deterministic: a
// fixed (profile, seed) replays the identical fault schedule, and the
// zero profile is a byte-identical passthrough.

// Fault-plane and retry types, re-exported from the internal layers.
type (
	// DeviceFile is the device surface the attack samples through: an
	// open *KGSLFile satisfies it, and so does the *FaultPlane returned
	// by InjectFaults, so the two interchange anywhere a device file is
	// expected.
	DeviceFile = attack.DeviceFile
	// FaultProfile is a named set of fault probabilities; see
	// FaultProfiles for the predefined escalation (none, mild, moderate,
	// severe).
	FaultProfile = fault.Profile
	// FaultPlane is a device file wrapped in a seeded fault schedule; its
	// Stats field counts what was actually injected.
	FaultPlane = fault.File
	// InjectedFaultStats counts injected faults by class.
	InjectedFaultStats = fault.InjectedStats
	// RetryPolicy bounds how hard the sampler fights transient device
	// errors; the zero value disables retrying (any device error is
	// fatal). Set it on Attack.Retry.
	RetryPolicy = attack.RetryPolicy
	// RecoveryStats counts the recovery work one collection performed;
	// see Result.Recovery.
	RecoveryStats = attack.CollectStats
	// SampleError is the typed device-failure error the sampler returns;
	// classify it with errors.As plus SampleError.Retryable, never by
	// string matching.
	SampleError = attack.SampleError
)

// FaultProfiles returns the predefined fault profiles in severity order:
// none (a pure passthrough), mild, moderate, severe, starve. The default
// RetryPolicy absorbs all of them — accuracy may degrade, availability
// never does.
func FaultProfiles() []FaultProfile { return fault.Profiles() }

// FaultProfileByName resolves a predefined profile ("none", "mild",
// "moderate", "severe").
func FaultProfileByName(name string) (FaultProfile, bool) { return fault.ByName(name) }

// InjectFaults wraps a device file in a fault plane driven by the
// profile and seed. Pass the result anywhere a DeviceFile is accepted —
// Attack.Eavesdrop, NewSamplerOn — and arm Attack.Retry (for example with
// DefaultRetryPolicy) so injected faults are recovered rather than
// fatal. For a fixed (profile, seed) the schedule replays
// bit-identically.
func InjectFaults(f DeviceFile, p FaultProfile, seed int64) *FaultPlane {
	return fault.NewFile(f, p, seed)
}

// DefaultRetryPolicy returns the retry policy the serving layer and the
// chaos experiments use: 4 attempts per operation with 250 µs → 2 ms
// sim-time exponential backoff, re-reservation after revocations, up to
// 32 consecutive bad ticks before giving up.
func DefaultRetryPolicy() RetryPolicy { return attack.DefaultRetryPolicy() }

// IsRetryable reports whether a device error is in the transient family
// a RetryPolicy recovers from (EBUSY, EINVAL, lost reservation,
// transient closure, wrapped read). Permission errors from an active
// mitigation are not retryable.
func IsRetryable(err error) bool { return attack.Retryable(err) }
