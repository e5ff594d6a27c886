package attack

import (
	"context"
	"errors"
	"fmt"

	"gpuleak/internal/fault"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// DefaultInterval is the paper's default counter polling period (§7: the
// selected GPU PCs are read every 8 ms).
const DefaultInterval = 8 * sim.Millisecond

// ErrWrappedRead marks a counter read whose value regressed below the
// previous sample — the signature of a saturated/wrapped 32-bit register.
// It is transient (a re-read returns the full-width value), so Retryable
// reports it retryable.
var ErrWrappedRead = errors.New("attack: wrapped counter read (value regressed)")

// Sampler periodically block-reads a side channel's counters, exactly as
// the paper's monitoring service does over KGSL (§4, Figure 10). The
// polling interval should be at most half the screen refresh interval so
// every frame is covered by at least one reading. The sampler is channel
// generic: File is any probe, and Errors carries the channel's transient
// -error taxonomy (zero value = KGSL, the original channel).
//
// With the zero-value Retry policy any device error aborts the
// collection; with a policy enabled the sampler retries transient errors
// with sim-time exponential backoff inside the tick budget,
// re-reserves revoked counters, and converts exhausted ticks into trace
// gaps — recovery work it accounts in Stats. The retry clock is
// simulated time only, so retried runs replay bit-identically.
type Sampler struct {
	File     Probe
	Interval sim.Time
	// Errors is the channel's transient-error taxonomy, governing what the
	// retry policy recovers and which sentinel triggers re-reservation.
	// The zero value means the KGSL taxonomy, keeping every legacy call
	// site byte-identical.
	Errors fault.Taxonomy
	// Retry bounds recovery from transient device errors. The zero value
	// disables retrying (any error is fatal).
	Retry RetryPolicy
	// Stats reports the recovery work of the most recent collection; it
	// is reset at the start of every Collect/CollectContext.
	Stats CollectStats
	// Obs, when non-nil, records a sampler.collect span per polling loop
	// plus read-error events, and counts polls in the metrics registry.
	// Retry and gap events are emitted only when faults actually fire.
	Obs *obs.Tracer
}

// NewSampler reserves the selected counters on the probe and returns a
// sampler. A reservation failure (e.g. an RBAC mitigation denying
// PERFCOUNTER_GET) is reported as a *SampleError wrapping the driver
// sentinel.
func NewSampler(f Probe, interval sim.Time) (*Sampler, error) {
	return NewSamplerTaxonomy(f, interval, RetryPolicy{}, fault.Taxonomy{})
}

// NewSamplerTaxonomy is NewSampler with a retry policy and an explicit
// channel error taxonomy (zero value = KGSL). The initial reservation
// itself is retried with sim-time backoff (a fault plane can make even
// PERFCOUNTER_GET fail transiently), the policy governs every subsequent
// collection, and reservation retries, per-tick retry classification and
// the re-reservation trigger all follow the given channel's sentinels.
func NewSamplerTaxonomy(f Probe, interval sim.Time, policy RetryPolicy, tax fault.Taxonomy) (*Sampler, error) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	at := sim.Time(0)
	var err error
	for attempt := 0; ; attempt++ {
		err = f.ReserveSelected(at)
		if err == nil {
			break
		}
		if !policy.Enabled() || !RetryableIn(err, tax) || attempt+1 >= policy.MaxAttempts {
			return nil, &SampleError{At: at, Op: "reserve", Attempts: attempt + 1, Err: err}
		}
		at += policy.BackoffAt(attempt)
	}
	return &Sampler{File: f, Interval: interval, Retry: policy, Errors: tax}, nil
}

// taxonomy resolves the sampler's error taxonomy, defaulting to KGSL.
func (s *Sampler) taxonomy() fault.Taxonomy {
	if s.Errors.Valid() {
		return s.Errors
	}
	return fault.KGSL()
}

// retryable classifies a driver error under the sampler's taxonomy.
func (s *Sampler) retryable(err error) bool { return RetryableIn(err, s.Errors) }

// Collect polls the counters over [start, end] and returns the trace.
// Device errors abort the collection unless the Retry policy recovers
// them — on a mitigated device the attack fails here.
func (s *Sampler) Collect(start, end sim.Time) (*trace.Trace, error) {
	return s.CollectContext(context.Background(), start, end)
}

// CollectContext is Collect with cancellation honored at sampler-tick
// granularity: the polling loop checks ctx before every counter read and
// aborts with the context's error, so a canceled request never completes
// a sweep it no longer needs. The trace is allocated once, with room for
// a sample at every tick of [start, end], and each tick's read is written
// straight into its sample; a tick that yields no read leaves none.
func (s *Sampler) CollectContext(ctx context.Context, start, end sim.Time) (*trace.Trace, error) {
	sp := s.Obs.Start(start, evSamplerCollect, obs.Int("interval_us", int(s.Interval)))
	s.Stats = CollectStats{}
	ticks := 0
	if s.Interval > 0 && end >= start {
		ticks = int((end-start)/s.Interval) + 1
	}
	tr := &trace.Trace{Interval: s.Interval, Samples: make([]trace.Sample, 0, ticks)}
	tf, hasTF := s.File.(TickFaults)
	badTicks := 0
	t := start
	for tick := 0; t <= end; t, tick = t+s.Interval, tick+1 {
		if err := ctx.Err(); err != nil {
			if s.Obs != nil {
				s.Obs.Emit(t, evSamplerReadError, obs.Str("err", err.Error()))
				sp.AddField(obs.Int("samples", tr.Len()))
				sp.End(t)
			}
			return nil, fmt.Errorf("attack: sampling canceled at %v: %w", t, err)
		}
		s.Stats.Ticks++
		readAt := t
		if hasTF {
			delay, drop := tf.TickFault(tick, t)
			if drop {
				s.Stats.DroppedTicks++
				s.emitGap(t, "tick_dropped")
				continue
			}
			if delay > 0 {
				readAt = t + delay
				if readAt >= t+s.Interval {
					readAt = t + s.Interval - 1
				}
			}
		}
		// The read lands in the trace's next sample; the previous sample
		// is the last successful read, the wrap check's reference.
		n := len(tr.Samples)
		tr.Samples = append(tr.Samples, trace.Sample{})
		var prev *trace.Raw
		if n > 0 {
			prev = &tr.Samples[n-1].Values
		}
		at, serr := s.readTick(readAt, t+s.Interval, &tr.Samples[n].Values, prev)
		if serr != nil {
			tr.Samples = tr.Samples[:n]
			if !s.Retry.Enabled() || !s.retryable(serr.Err) {
				if s.Obs != nil {
					s.Obs.Emit(at, evSamplerReadError, obs.Str("err", serr.Err.Error()))
					sp.AddField(obs.Int("samples", tr.Len()))
					sp.End(at)
				}
				return nil, serr
			}
			s.Stats.DroppedTicks++
			badTicks++
			s.emitGap(at, "retry_exhausted")
			if s.Retry.MaxBadTicks > 0 && badTicks > s.Retry.MaxBadTicks {
				if s.Obs != nil {
					s.Obs.Emit(at, evSamplerReadError, obs.Str("err", serr.Err.Error()))
					sp.AddField(obs.Int("samples", tr.Len()))
					sp.End(at)
				}
				return nil, fmt.Errorf("attack: %d consecutive failed ticks: %w", badTicks, serr)
			}
			continue
		}
		badTicks = 0
		tr.Samples[n].At = at
	}
	if s.Obs != nil {
		s.Obs.Metrics().Add(mSamplerReads, int64(tr.Len()))
		if s.Stats.Retries > 0 {
			s.Obs.Metrics().Add(mSamplerRetries, int64(s.Stats.Retries))
		}
		if s.Stats.ReReservations > 0 {
			s.Obs.Metrics().Add(mSamplerRereservations, int64(s.Stats.ReReservations))
		}
		if s.Stats.DroppedTicks > 0 {
			s.Obs.Metrics().Add(mSamplerDroppedTicks, int64(s.Stats.DroppedTicks))
		}
		sp.AddField(obs.Int("samples", tr.Len()))
		sp.End(t - s.Interval)
	}
	return tr, nil
}

// readTick performs one poll at readAt with bounded retry inside the
// tick budget [readAt, deadline), writing the counters into dst. prev is
// the previous successful read, nil before the first. On success the
// returned time is when the read actually landed (after any backoff). On
// failure dst holds no valid read, and readTick returns a *SampleError
// carrying the last driver error; the caller classifies it as a
// droppable gap (retryable, policy enabled) or fatal.
func (s *Sampler) readTick(readAt, deadline sim.Time, dst, prev *trace.Raw) (sim.Time, *SampleError) {
	tryAt := readAt
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Transient failure: back off within the tick, give the driver
			// sim-time to clear, and retry.
			wait := s.Retry.BackoffAt(attempt - 1)
			next := tryAt + wait
			if attempt >= s.Retry.MaxAttempts || next >= deadline {
				return tryAt, &SampleError{At: tryAt, Op: "read", Attempts: attempt, Err: lastErr}
			}
			tryAt = next
			s.Stats.Retries++
			if s.Obs != nil {
				s.Obs.Emit(tryAt, evSamplerRetry,
					obs.Int("attempt", attempt), obs.Str("err", lastErr.Error()))
			}
			if errors.Is(lastErr, s.taxonomy().NotReserved) {
				// The counter group was revoked mid-session (another process
				// issued PERFCOUNTER_PUT/GET); re-reserve before re-reading.
				if rerr := s.File.ReserveSelected(tryAt); rerr != nil {
					if !s.retryable(rerr) {
						return tryAt, &SampleError{At: tryAt, Op: "reserve", Attempts: attempt, Err: rerr}
					}
					lastErr = rerr
					continue
				}
				s.Stats.ReReservations++
				if s.Obs != nil {
					s.Obs.Emit(tryAt, evSamplerRereserve, obs.Int("attempt", attempt))
				}
			}
		}
		var err error
		if *dst, err = s.File.ReadSelected(tryAt); err != nil {
			if !s.Retry.Enabled() || !s.retryable(err) {
				return tryAt, &SampleError{At: tryAt, Op: "read", Attempts: attempt + 1, Err: err}
			}
			lastErr = err
			continue
		}
		if s.Retry.WrapCheck && prev != nil && regressed(dst, prev) {
			// Cumulative counters never decrease; a regression is a
			// truncated register read. Re-read rather than poison the delta.
			s.Stats.WrappedRetries++
			lastErr = ErrWrappedRead
			continue
		}
		return tryAt, nil
	}
}

// regressed reports whether any counter value moved backwards between
// consecutive reads.
func regressed(cur, prev *trace.Raw) bool {
	for i := range cur {
		if cur[i] < prev[i] {
			return true
		}
	}
	return false
}

func (s *Sampler) emitGap(t sim.Time, reason string) {
	if s.Obs == nil {
		return
	}
	s.Obs.Emit(t, evSamplerGap, obs.Str("reason", reason))
}
