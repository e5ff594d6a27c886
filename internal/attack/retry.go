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
// errors a RetryPolicy recovers from. Permission errors (EPERM, EACCES:
// an active mitigation) and protocol errors are fatal.
func (e *SampleError) Retryable() bool { return Retryable(e.Err) }

// Retryable classifies a driver error as transient under the default
// (KGSL) taxonomy. It is sentinel-based (errors.Is), never string-based:
// ErrBusy, ErrInval, ErrNotReserved and ErrClosed are the transient
// family a real KGSL consumer sees under contention, and ErrWrappedRead
// clears on re-read; everything else is fatal. Channel-aware callers use
// RetryableIn with the channel's own taxonomy instead.
func Retryable(err error) bool {
	return RetryableIn(err, fault.Taxonomy{})
}

// RetryableIn classifies a driver error as transient under a channel's
// error taxonomy (an invalid/zero taxonomy means KGSL, the default
// channel). ErrWrappedRead is retryable on every channel: cumulative
// counters clearing on re-read is a property of the sampler, not the
// driver.
func RetryableIn(err error, tax fault.Taxonomy) bool {
	if !tax.Valid() {
		tax = fault.KGSL()
	}
	return tax.Retryable(err) || errors.Is(err, ErrWrappedRead)
}

// RetryPolicy bounds how hard the sampler fights transient device
// errors. All waits are sim-time: backoff advances the simulated clock
// deterministically and never sleeps a wall clock, so retried runs
// replay bit-identically.
//
// The zero value disables retrying — any device error is fatal, the
// pre-fault-plane behavior. DefaultRetryPolicy is tuned to absorb every
// predefined fault profile.
type RetryPolicy struct {
	// MaxAttempts is the per-operation attempt budget (first try
	// included). 0 disables retrying entirely.
	MaxAttempts int
	// Backoff is the wait before the first retry; each further retry
	// multiplies it by BackoffFactor (default 2) up to MaxBackoff.
	Backoff       sim.Time
	BackoffFactor int
	MaxBackoff    sim.Time
	// MaxBadTicks bounds how many consecutive polling ticks may fail
	// (after per-tick retries) before the collection is abandoned as
	// fatal; a failed tick within the budget becomes a trace gap instead.
	MaxBadTicks int
	// WrapCheck re-reads when a counter value regresses below its
	// previous sample — the signature of a saturated/wrapped 32-bit
	// register read. Opt-in because heavy CPU-load scenarios legitimately
	// reorder effective read times (kgsl.Device.ReadLatency), which a
	// wrap check would misfire on.
	WrapCheck bool
}

// DefaultRetryPolicy returns the policy the serving layer and the chaos
// experiments use: 4 attempts per operation with 250 µs → 2 ms
// exponential backoff, up to 32 consecutive bad ticks, wrap re-reads on.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:   4,
		Backoff:       250 * sim.Microsecond,
		BackoffFactor: 2,
		MaxBackoff:    2 * sim.Millisecond,
		MaxBadTicks:   32,
		WrapCheck:     true,
	}
}

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 0 }

// BackoffAt returns the sim-time wait before retry number retry (0 is
// the wait after the first failure): Backoff·BackoffFactor^retry, capped
// at MaxBackoff.
func (p RetryPolicy) BackoffAt(retry int) sim.Time {
	w := p.Backoff
	if w <= 0 {
		w = 250 * sim.Microsecond
	}
	factor := p.BackoffFactor
	if factor < 2 {
		factor = 2
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 2 * sim.Millisecond
	}
	for i := 0; i < retry; i++ {
		w *= sim.Time(factor)
		if w >= max {
			return max
		}
	}
	if w > max {
		w = max
	}
	return w
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
