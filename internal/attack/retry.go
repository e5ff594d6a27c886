package attack

import (
	"errors"
	"fmt"

	"gpuleak/internal/channel"
	"gpuleak/internal/fault"
	"gpuleak/internal/sim"
)

// Probe is the channel surface the attack samples through: the two calls
// the sampler issues per polling tick, on any registered side channel.
// *kgsl.File, *fault.File and *proccount.Probe all satisfy it.
type Probe = channel.Probe

// DeviceFile is the KGSL-shaped superset of Probe: the device surface of
// the original channel, with the raw ioctl entry point the §9 mitigation
// experiments drive directly — the surface the fault plane wraps.
// *kgsl.File satisfies it directly; *fault.File satisfies it with a fault
// plane in between.
type DeviceFile = fault.Device

// TickFaults is the optional clock-perturbation surface of a probe; see
// channel.TickFaults.
type TickFaults = channel.TickFaults

// SampleError reports a device-plane failure during sampling, wrapping
// the kgsl sentinel so callers can classify it with errors.Is/errors.As
// instead of string matching. It is the only error type the sampler
// returns for device failures.
type SampleError struct {
	// At is the simulated time of the failing operation.
	At sim.Time
	// Op is what failed: "read" (PERFCOUNTER_READ) or "reserve"
	// (PERFCOUNTER_GET).
	Op string
	// Attempts is how many times the operation was tried, including
	// retries, before giving up.
	Attempts int
	// Err is the underlying driver error (a kgsl sentinel, possibly
	// wrapped).
	Err error
}

// Error renders the failure with its operation, time and attempt count.
func (e *SampleError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("attack: %s at %v failed after %d attempts: %v",
			e.Op, e.At, e.Attempts, e.Err)
	}
	return fmt.Sprintf("attack: %s at %v failed: %v", e.Op, e.At, e.Err)
}

// Unwrap exposes the driver error to errors.Is/errors.As.
func (e *SampleError) Unwrap() error { return e.Err }

// Retryable reports whether the wrapped driver error is in the transient
// family (EBUSY, EINVAL, lost reservation, transient closure) — the
// errors a retrying sampler recovers from. Permission errors (EPERM,
// EACCES: an active mitigation) and protocol errors are fatal.
func (e *SampleError) Retryable() bool { return Retryable(e.Err) }

// Retryable classifies a driver error as transient under the KGSL
// taxonomy. It is sentinel-based (errors.Is), never string-based:
// ErrBusy, ErrInval, ErrNotReserved and ErrClosed are the transient
// family a real KGSL consumer sees under contention, and ErrWrappedRead
// clears on re-read; everything else is fatal. Channel-aware callers use
// RetryableIn with the channel's own taxonomy instead.
func Retryable(err error) bool {
	return RetryableIn(err, fault.KGSL())
}

// RetryableIn classifies a driver error as transient under a channel's
// error taxonomy. ErrWrappedRead is retryable on every channel:
// cumulative counters clearing on re-read is a property of the sampler,
// not the driver.
func RetryableIn(err error, tax fault.Taxonomy) bool {
	return tax.Retryable(err) || errors.Is(err, ErrWrappedRead)
}

// The retry schedule of a sampler with Retry set, tuned to absorb every
// predefined fault profile. All waits are sim-time: backoff advances the
// simulated clock deterministically and never sleeps a wall clock, so
// retried runs replay bit-identically.
const (
	// retryAttempts is the per-operation attempt budget, first try
	// included.
	retryAttempts = 4
	// retryBackoff is the wait before the first retry; each further retry
	// doubles it, up to retryMaxBackoff.
	retryBackoff    = 250 * sim.Microsecond
	retryMaxBackoff = 2 * sim.Millisecond
	// maxBadTicks bounds how many consecutive polling ticks may fail
	// (after per-tick retries) before the collection is abandoned as
	// fatal; a failed tick within the budget becomes a trace gap instead.
	maxBadTicks = 32
)

// backoffAt returns the sim-time wait before retry number retry (0 is
// the wait after the first failure): retryBackoff·2^retry, capped at
// retryMaxBackoff.
func backoffAt(retry int) sim.Time {
	w := retryBackoff
	for i := 0; i < retry && w < retryMaxBackoff; i++ {
		w *= 2
	}
	return min(w, retryMaxBackoff)
}

// CollectStats counts the recovery work one collection performed. All
// counters are zero in a faultless run; any nonzero counter marks the
// resulting trace — and everything inferred from it — as degraded.
type CollectStats struct {
	// Ticks is the number of polling ticks scheduled.
	Ticks int `json:"ticks,omitempty"`
	// Retries counts read retries after transient errors.
	Retries int `json:"retries,omitempty"`
	// ReReservations counts successful PERFCOUNTER_GET re-reservations
	// after a mid-session revocation.
	ReReservations int `json:"rereservations,omitempty"`
	// DroppedTicks counts ticks abandoned (retry budget exhausted or the
	// fault plane dropped them); each becomes a gap in the trace.
	DroppedTicks int `json:"dropped_ticks,omitempty"`
	// WrappedRetries counts re-reads triggered by the wrap check.
	WrappedRetries int `json:"wrapped_retries,omitempty"`
}

// Degraded reports whether any recovery machinery fired: the trace is
// complete and exact only when this is false.
func (s CollectStats) Degraded() bool {
	return s.Retries > 0 || s.ReReservations > 0 || s.DroppedTicks > 0 || s.WrappedRetries > 0
}

// Add accumulates another stats block into s.
func (s *CollectStats) Add(o CollectStats) {
	s.Ticks += o.Ticks
	s.Retries += o.Retries
	s.ReReservations += o.ReReservations
	s.DroppedTicks += o.DroppedTicks
	s.WrappedRetries += o.WrappedRetries
}
