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
// -error taxonomy.
//
// Without Retry any device error aborts the collection; with it the
// sampler retries transient errors with sim-time exponential backoff
// inside the tick budget, re-reserves revoked counters, and converts
// exhausted ticks into trace gaps — recovery work it accounts in Stats.
// The retry clock is simulated time only, so retried runs replay
// bit-identically.
type Sampler struct {
	File     Probe
	Interval sim.Time
	// Errors is the channel's transient-error taxonomy, governing what
	// retries recover and which sentinel triggers re-reservation.
	// NewSamplerTaxonomy sets it, to KGSL's when given the zero value.
	Errors fault.Taxonomy
	// Retry turns on recovery from transient device errors: up to
	// retryAttempts tries per tick with sim-time backoff, re-reservation
	// after a revocation, re-reads of a counter that regressed, and a gap
	// for a tick that exhausts them, up to maxBadTicks in a row. Off, any
	// device error is fatal and a regressed read is kept: heavy CPU-load
	// scenarios legitimately reorder effective read times
	// (kgsl.Device.ReadLatency), which the wrap check would misfire on.
	Retry bool
	// Stats reports the recovery work of the most recent collection; it
	// is reset at the start of every CollectContext.
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
	return NewSamplerTaxonomy(f, interval, false, fault.Taxonomy{})
}

// NewSamplerTaxonomy is NewSampler with retries switched on or off and
// an explicit channel error taxonomy; the zero taxonomy means KGSL, the
// original channel. With retry the initial reservation itself is retried
// with sim-time backoff (a fault plane can make even PERFCOUNTER_GET fail
// transiently), and reservation retries, per-tick retry classification
// and the re-reservation trigger all follow the channel's sentinels.
func NewSamplerTaxonomy(f Probe, interval sim.Time, retry bool, tax fault.Taxonomy) (*Sampler, error) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if !tax.Valid() {
		tax = fault.KGSL()
	}
	at := sim.Time(0)
	for attempt := 0; ; attempt++ {
		err := f.ReserveSelected(at)
		if err == nil {
			break
		}
		if !retry || !RetryableIn(err, tax) || attempt+1 >= retryAttempts {
			return nil, &SampleError{At: at, Op: "reserve", Attempts: attempt + 1, Err: err}
		}
		at += backoffAt(attempt)
	}
	return &Sampler{File: f, Interval: interval, Retry: retry, Errors: tax}, nil
}

// retryable classifies a driver error under the sampler's taxonomy.
func (s *Sampler) retryable(err error) bool { return RetryableIn(err, s.Errors) }

// CollectContext polls the counters over [start, end] and returns the
// trace: the first read and a Delta for every read that moved a counter;
// a flat read is only counted. Device errors abort the collection unless
// Retry recovers them — on a mitigated device the attack fails here. The
// polling loop checks ctx before every counter read and aborts with the
// context's error, so a canceled request never completes a sweep it no
// longer needs.
func (s *Sampler) CollectContext(ctx context.Context, start, end sim.Time) (*trace.Trace, error) {
	tr := s.newTrace(start, end)
	if err := s.poll(ctx, start, end, tr, func(d trace.Delta) bool {
		tr.Append(d)
		return true
	}); err != nil {
		return nil, err
	}
	return tr, nil
}

// newTrace returns an empty trace for a poll of [start, end], with room
// for a change at one read in eight: a typing session moves the counters
// at about one read in ten and a training session at one in twenty.
// Appends past it grow the trace.
func (s *Sampler) newTrace(start, end sim.Time) *trace.Trace {
	tr := &trace.Trace{Interval: s.Interval}
	if s.Interval > 0 && end >= start {
		tr.Grow(int((end-start)/s.Interval)/8 + 1)
	}
	return tr
}

// poll is the one polling loop: CollectContext, the online phase and the
// launch monitor all read the counters through it. It reads them at
// every tick of [start, end], records the first successful read and the
// read count in tr, and hands yield the change point of every later read
// that moved a counter as soon as it lands; polling stops early, without
// error, after the tick at which yield answers false. The previous
// successful read is the wrap check's reference and the base of the next
// delta, so a flat read costs no storage.
func (s *Sampler) poll(ctx context.Context, start, end sim.Time, tr *trace.Trace, yield func(trace.Delta) bool) error {
	// The field slice escapes into the tracer: build it only when tracing.
	var sp *obs.Span
	if s.Obs.Enabled() {
		sp = s.Obs.Start(start, evSamplerCollect, obs.Int("interval_us", int(s.Interval)))
	}
	s.Stats = CollectStats{}
	tf, hasTF := s.File.(TickFaults)
	// Each read lands in cur; prev holds the last successful read. The
	// two buffers swap on success, so no read is copied.
	var bufs [2]trace.Raw
	cur, prev := &bufs[0], &bufs[1]
	var prevAt sim.Time
	var d trace.Delta
	badTicks := 0
	more := true
	t := start
	// The tick reads the done channel, which is lock-free, not Err, which
	// locks the context: a training's workers share one context and poll
	// it at every tick of every task.
	done := ctx.Done()
	for tick := 0; more && t <= end; t, tick = t+s.Interval, tick+1 {
		select {
		case <-done:
			err := ctx.Err()
			if s.Obs != nil {
				s.Obs.Emit(t, evSamplerReadError, obs.Str("err", err.Error()))
				sp.AddField(obs.Int("samples", tr.Reads))
				sp.End(t)
			}
			return fmt.Errorf("attack: sampling canceled at %v: %w", t, err)
		default:
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
		var ref *trace.Raw
		if tr.Reads > 0 {
			ref = prev
		}
		at, serr := s.readTick(readAt, t+s.Interval, cur, ref)
		if serr != nil {
			if !s.Retry || !s.retryable(serr.Err) {
				if s.Obs != nil {
					s.Obs.Emit(at, evSamplerReadError, obs.Str("err", serr.Err.Error()))
					sp.AddField(obs.Int("samples", tr.Reads))
					sp.End(at)
				}
				return serr
			}
			s.Stats.DroppedTicks++
			badTicks++
			s.emitGap(at, "retry_exhausted")
			if badTicks > maxBadTicks {
				if s.Obs != nil {
					s.Obs.Emit(at, evSamplerReadError, obs.Str("err", serr.Err.Error()))
					sp.AddField(obs.Int("samples", tr.Reads))
					sp.End(at)
				}
				return fmt.Errorf("attack: %d consecutive failed ticks: %w", badTicks, serr)
			}
			continue
		}
		badTicks = 0
		if tr.Reads == 0 {
			tr.First = trace.Sample{At: at, Values: *cur}
		} else if trace.Change(&d.V, cur, prev) {
			d.At, d.Gap = at, at-prevAt
			more = yield(d)
		}
		tr.Reads++
		cur, prev = prev, cur
		prevAt = at
	}
	if s.Obs != nil {
		s.Obs.Metrics().Add(mSamplerReads, int64(tr.Reads))
		if s.Stats.Retries > 0 {
			s.Obs.Metrics().Add(mSamplerRetries, int64(s.Stats.Retries))
		}
		if s.Stats.ReReservations > 0 {
			s.Obs.Metrics().Add(mSamplerRereservations, int64(s.Stats.ReReservations))
		}
		if s.Stats.DroppedTicks > 0 {
			s.Obs.Metrics().Add(mSamplerDroppedTicks, int64(s.Stats.DroppedTicks))
		}
		sp.AddField(obs.Int("samples", tr.Reads))
		sp.End(t - s.Interval)
	}
	return nil
}

// readTick performs one poll at readAt with bounded retry inside the
// tick budget [readAt, deadline), writing the counters into dst. prev is
// the previous successful read, nil before the first. On success the
// returned time is when the read actually landed (after any backoff). On
// failure dst holds no valid read, and readTick returns a *SampleError
// carrying the last driver error; the caller classifies it as a
// droppable gap (retryable, Retry on) or fatal.
func (s *Sampler) readTick(readAt, deadline sim.Time, dst, prev *trace.Raw) (sim.Time, *SampleError) {
	tryAt := readAt
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Transient failure: back off within the tick, give the driver
			// sim-time to clear, and retry.
			next := tryAt + backoffAt(attempt-1)
			if attempt >= retryAttempts || next >= deadline {
				return tryAt, &SampleError{At: tryAt, Op: "read", Attempts: attempt, Err: lastErr}
			}
			tryAt = next
			s.Stats.Retries++
			if s.Obs != nil {
				s.Obs.Emit(tryAt, evSamplerRetry,
					obs.Int("attempt", attempt), obs.Str("err", lastErr.Error()))
			}
			if errors.Is(lastErr, s.Errors.NotReserved) {
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
			if !s.Retry || !s.retryable(err) {
				return tryAt, &SampleError{At: tryAt, Op: "read", Attempts: attempt + 1, Err: err}
			}
			lastErr = err
			continue
		}
		if s.Retry && prev != nil && regressed(dst, prev) {
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
